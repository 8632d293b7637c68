//! The worker side of the pool: pop a job, check each member's deadline,
//! stamp its window/queue spans, execute once, complete each member.
//!
//! There is one path. A job's members run as **one** execute step, which
//! picks its kernel from the batch size it can observe: a lone member runs
//! [`QueryEngine::run`] (and may carry a `"trace"`), several run
//! [`QueryEngine::run_multi`] as one multi-source kernel whose execute time
//! is reported as every member's `micros` (they *shared* that computation).
//! Either way each member is then completed by the same function — cached
//! under its own key, rendered by the same code (so fused answers are
//! byte-identical to solo ones) and answered with its own request id.
//!
//! The execute step is the one place a query's own code runs, so it is the
//! one place a panic is contained ([`contained`]): a kernel `assert!` costs
//! its job an `internal` answer per member, never the worker.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gbtl_util::time::now_ns;

use super::queue::{Job, Member};
use super::render::query_response;
use super::EnginePool;
use crate::cache::CachedResult;
use crate::catalog::GraphEntry;
use crate::engine::Engine as QueryEngine;
use crate::protocol::{error_response, QueryParams};

/// One slow-query log payload (the log's ranking key is the total latency).
#[derive(Debug, Clone)]
pub(super) struct SlowQuery {
    pub(super) request_id: u64,
    /// X-ray trace id when the request was sampled (0 = untraced). Traced
    /// slow-log entrants are pinned in the xray store so the trace behind
    /// a slow entry stays fetchable after the ring would have evicted it.
    pub(super) trace_id: u64,
    /// Fused-batch size the request executed in (0 = ran solo).
    pub(super) batch: u64,
    pub(super) graph: String,
    pub(super) params: String,
    pub(super) queue_us: u64,
    pub(super) execute_us: u64,
    pub(super) serialize_us: u64,
}

pub(super) fn worker_loop(pool: &Arc<EnginePool>, index: usize) {
    let engine = &pool.engines[index];
    while let Some(job) = pool.queue.pop() {
        let picked_up = Instant::now();
        match job {
            Job::Queries(members) => run_queries(pool, index, members, picked_up, |live, xray| {
                execute(engine, live, xray)
            }),
            Job::Sleep {
                ms,
                id,
                deadline,
                enqueued_ns,
                xray,
                reply,
            } => {
                if picked_up > deadline {
                    reply.send(expired(pool, id));
                    continue;
                }
                queue_span(xray, enqueued_ns, index);
                std::thread::sleep(Duration::from_millis(ms));
                let labels = [("algo", "sleep"), ("backend", "none"), ("cache", "miss")];
                observe_stage(pool, labels, "execute", ms * 1000);
                let id_part = id.map(|i| format!("\"id\":{i},")).unwrap_or_default();
                reply.send(format!("{{\"ok\":true,{id_part}\"slept_ms\":{ms}}}"));
            }
        }
    }
}

/// Count and render the rejection of a job whose deadline passed while it
/// waited — the same answer for a sleep, a solo query and a batch member.
fn expired(pool: &EnginePool, id: Option<u64>) -> String {
    pool.stats.deadline_expired.inc();
    error_response("deadline", "deadline expired while queued", id)
}

/// A sampled request's `pool.queue` span: from `start_ns` to now.
fn queue_span(xray: Option<gbtl_xray::TraceContext>, start_ns: u64, worker: usize) {
    if let Some(ctx) = xray {
        gbtl_xray::store().add_span(
            ctx,
            "pool.queue",
            start_ns,
            now_ns(),
            &[("worker", worker.to_string())],
        );
    }
}

/// Each member's (result fragment, rendered `"trace"` spans) or error text.
type MemberResults = Vec<Result<(String, Option<String>), String>>;

/// The execute step: run the live members of one job on a worker's engine,
/// as one kernel picked from the batch size (see the module docs).
fn execute(
    engine: &QueryEngine,
    live: &[Member],
    xray: Option<gbtl_xray::TraceContext>,
) -> MemberResults {
    let first = &live[0];
    if live.len() > 1 {
        // homogeneous by fuse-key construction: every member asked for
        // this graph epoch, algorithm, backend and direction
        let sources: Vec<(usize, bool)> = live
            .iter()
            .map(|m| (m.params.source, m.params.full))
            .collect();
        let p = &first.params;
        engine
            .run_multi(&first.graph, p.algo, p.backend, p.direction, &sources, xray)
            .into_iter()
            .map(|r| r.map(|result_json| (result_json, None)))
            .collect()
    } else {
        let run = engine.run(&first.graph, &first.params, Some(first.request_id), xray);
        vec![run.map(|o| (o.result_json, o.trace_json))]
    }
}

/// Run an execute step with a panic contained: the unwind stops here, is
/// counted in `gbtl_worker_panics_total`, and comes back as the text the
/// job's members are answered with, so the worker goes on to its next job.
///
/// Nothing the step shares outlives it in a broken state: the engine's
/// contexts clear their stamps on unwind (`engine::Stamps`), pooled kernel
/// workspaces drop a buffer whose borrower unwound, and no lock is held
/// across a kernel (the transpose cache builds outside its mutex; the
/// trace ring and the par pool's deques lock around a push or pop only).
fn contained<R>(pool: &EnginePool, step: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(step)).map_err(|payload| {
        pool.stats.worker_panics.inc();
        let what = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("(non-string panic payload)");
        format!("query panicked: {what}")
    })
}

/// Run one job's queries through `execute` and answer each.
///
/// Per-member deadline check first: an expired member gets the `deadline`
/// rejection and the survivors run unaffected — the one-expired-of-k
/// regression case. What survives executes once, [`contained`], and is
/// completed member by member; if the step panicked, each live member gets
/// an `internal` error under its own id instead.
fn run_queries(
    pool: &EnginePool,
    worker: usize,
    members: Vec<Member>,
    picked_up: Instant,
    execute: impl FnOnce(&[Member], Option<gbtl_xray::TraceContext>) -> MemberResults,
) {
    let mut live: Vec<Member> = Vec::with_capacity(members.len());
    for m in members {
        if picked_up > m.deadline {
            m.reply.send(expired(pool, m.params.id));
        } else {
            live.push(m);
        }
    }
    let Some(first) = live.first() else { return };
    let picked_up_ns = now_ns();
    let fused = live.len() > 1;
    // the fused-batch size each member reports (0 = ran solo)
    let batch = if fused { live.len() as u64 } else { 0 };

    for m in &live {
        // a lone member's window wait (if it had one) folds into its queue
        // span; a batch member's is its own span, ending when the group
        // was released (enqueue + the stamped window_us)
        let mut queued_ns = m.enqueued_ns;
        if let (true, Some(ctx)) = (fused, m.xray) {
            queued_ns += m.window_us * 1_000;
            gbtl_xray::store().add_span(
                ctx,
                "fuse.window",
                m.enqueued_ns,
                queued_ns,
                &[("algo", m.params.algo.as_str().to_string())],
            );
        }
        queue_span(m.xray, queued_ns, worker);
    }

    // pre-allocate the execute span's id so the kernel's op spans (recorded
    // by the tracer *during* the run) can be parented under it; the span
    // itself is stamped after. A batch runs once, so its op spans can only
    // hang in one tree: the first sampled member's.
    let exec_span = live
        .iter()
        .find_map(|m| m.xray)
        .map(|ctx| (ctx, gbtl_xray::store().next_span_id(), now_ns()));
    let exec_child = exec_span.map(|(ctx, span_id, _)| ctx.child_of(span_id));

    let t0 = Instant::now();
    let outcome = contained(pool, || execute(&live, exec_child));
    let execute_us = t0.elapsed().as_micros() as u64;

    if let Some((first_ctx, span_id, start_ns)) = exec_span {
        let end_ns = now_ns();
        let mut attrs = vec![
            ("algo", first.params.algo.as_str().to_string()),
            ("backend", first.params.backend.as_str().to_string()),
            ("graph", first.graph.name.clone()),
        ];
        if outcome.is_err() {
            attrs.push(("panicked", "true".to_string()));
        }
        let name = if fused {
            // every sampled member's batch span cross-links the others
            let traces: Vec<String> = live
                .iter()
                .filter_map(|m| m.xray.map(|c| c.trace_id.to_string()))
                .collect();
            attrs.push(("batch_size", batch.to_string()));
            attrs.push(("members", traces.join(",")));
            "fuse.batch"
        } else {
            "pool.execute"
        };
        let store = gbtl_xray::store();
        store.add_span_with_id(span_id, first_ctx, name, start_ns, end_ns, &attrs);
        // one span per *sampled* member (each in its own trace), all
        // covering the same shared kernel run
        for ctx in live.iter().filter_map(|m| m.xray) {
            if ctx.trace_id != first_ctx.trace_id {
                store.add_span(ctx, name, start_ns, end_ns, &attrs);
            }
        }
    }

    match outcome {
        Ok(results) => {
            for (m, result) in live.into_iter().zip(results) {
                complete_member(pool, m, result, picked_up_ns, execute_us, batch);
            }
        }
        Err(what) => {
            for m in live {
                m.reply.send(error_response("internal", &what, m.params.id));
            }
        }
    }
}

/// Finish one executed member: cache its result under its own key, render
/// and record the response, reply.
fn complete_member(
    pool: &EnginePool,
    m: Member,
    result: Result<(String, Option<String>), String>,
    picked_up_ns: u64,
    execute_us: u64,
    batch: u64,
) {
    let (result_json, trace_json) = match result {
        Ok(r) => r,
        Err(e) => {
            pool.stats.bad_requests.inc();
            m.reply.send(error_response("bad_request", &e, m.params.id));
            return;
        }
    };
    let entry = CachedResult {
        result_json,
        compute_micros: execute_us,
    };
    let queue_us = picked_up_ns.saturating_sub(m.enqueued_ns) / 1_000;
    let response = render_and_record(
        pool,
        &m.params,
        &m.graph,
        m.request_id,
        m.xray,
        &entry,
        trace_json.as_deref(),
        Some((queue_us, batch)),
    );
    pool.cache.put(m.key, entry);
    if batch > 0 {
        observe_stage(pool, query_labels(&m.params, "miss"), "window", m.window_us);
    }
    m.reply.send(response);
}

/// The half of a completion that a computed result and a cache hit share:
/// render the query response, stamp the sampled request's serialize span,
/// count the served query and — when metrics are on — record its total and
/// per-stage latency histograms and offer it to the slow-query log.
///
/// `ran` is `Some((queue_us, batch))` for a result a worker just computed
/// (`batch` is the fused group size it executed in, 0 = solo) and `None`
/// for a cache hit, which `submit` serves through here inline — no
/// [`Member`], no queue. Hits skip the queue/execute stage histograms
/// (they never queue) and the slow log (serving a cached line is never
/// the slow path).
#[allow(clippy::too_many_arguments)]
pub(super) fn render_and_record(
    pool: &EnginePool,
    params: &QueryParams,
    graph: &GraphEntry,
    request_id: u64,
    xray: Option<gbtl_xray::TraceContext>,
    result: &CachedResult,
    trace_json: Option<&str>,
    ran: Option<(u64, u64)>,
) -> String {
    let t0 = pool.registry.enabled().then(Instant::now);
    let span_start = xray.map(|_| now_ns());
    let response = query_response(
        params,
        graph,
        request_id,
        ran.is_none(),
        result.compute_micros,
        &result.result_json,
        trace_json,
        xray,
    );
    if let (Some(ctx), Some(start_ns)) = (xray, span_start) {
        let (name, attr) = match ran {
            Some(_) => ("pool.serialize", ("bytes", response.len().to_string())),
            None => ("pool.cache", ("graph", graph.name.clone())),
        };
        gbtl_xray::store().add_span(ctx, name, start_ns, now_ns(), &[attr]);
    }

    // `Some` iff metrics are on; stamped before any of the recording below
    let serialize_us = t0.map(|t| t.elapsed().as_micros() as u64);

    let labels = query_labels(params, if ran.is_some() { "miss" } else { "hit" });
    pool.registry.counter("gbtl_requests_total", &labels).inc();
    let Some(serialize_us) = serialize_us else {
        return response;
    };
    // the trace id (0 = untraced) is the latency bucket's exemplar and the
    // slow-log entry's x-ray pointer
    let trace_id = xray.map_or(0, |c| c.trace_id);
    let latency = pool.registry.histogram("gbtl_request_latency_us", &labels);
    let Some((queue_us, batch)) = ran else {
        latency.observe_with_exemplar(serialize_us, trace_id);
        observe_stage(pool, labels, "serialize", serialize_us);
        return response;
    };
    let execute_us = result.compute_micros;
    let total_us = queue_us + execute_us + serialize_us;
    latency.observe_with_exemplar(total_us, trace_id);
    observe_stage(pool, labels, "queue", queue_us);
    observe_stage(pool, labels, "execute", execute_us);
    observe_stage(pool, labels, "serialize", serialize_us);
    let admitted = pool.slow_log.offer(
        total_us,
        SlowQuery {
            request_id,
            trace_id,
            batch,
            graph: graph.name.clone(),
            params: params.cache_params(),
            queue_us,
            execute_us,
            serialize_us,
        },
    );
    // a slow-log entrant's trace is the one an operator will want to open
    // later — pin it against ring eviction
    if admitted && trace_id != 0 {
        gbtl_xray::store().pin(trace_id);
    }
    response
}

/// The `algo` / `backend` / `cache` labels every per-query metric carries.
fn query_labels(params: &QueryParams, cache: &'static str) -> [(&'static str, &'static str); 3] {
    [
        ("algo", params.algo.as_str()),
        ("backend", params.backend.as_str()),
        ("cache", cache),
    ]
}

/// One `gbtl_stage_latency_us{…,stage}` sample, when metrics are on.
fn observe_stage(pool: &EnginePool, labels: [(&str, &str); 3], stage: &str, micros: u64) {
    if pool.registry.enabled() {
        let [algo, backend, cache] = labels;
        pool.registry
            .histogram(
                "gbtl_stage_latency_us",
                &[algo, backend, cache, ("stage", stage)],
            )
            .observe(micros);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::GraphSpec;
    use crate::protocol::{parse_request, Request};
    use crate::ServerConfig;
    use gbtl_net::Reply;
    use std::sync::mpsc;

    /// An admitted bfs over `graph` from `source` under client id `id`,
    /// whose answer lands on `tx`.
    fn member(
        graph: &Arc<GraphEntry>,
        source: usize,
        id: u64,
        tx: &mpsc::Sender<String>,
    ) -> Member {
        let line = format!(
            "{{\"op\":\"query\",\"graph\":\"k\",\"algo\":\"bfs\",\"source\":{source},\"id\":{id}}}"
        );
        let Ok(Request::Query(params)) = parse_request(&line) else {
            panic!("a query line parses to a query");
        };
        let tx = tx.clone();
        Member {
            key: crate::cache::cache_key(&graph.name, graph.epoch, &params.cache_params()),
            params,
            graph: Arc::clone(graph),
            request_id: id,
            deadline: Instant::now() + Duration::from_secs(60),
            window_us: 0,
            enqueued_ns: now_ns(),
            xray: None,
            reply: Reply::new(move |r| tx.send(r).unwrap()),
        }
    }

    #[test]
    fn a_panicking_execute_step_costs_the_job_not_the_worker() {
        let pool = EnginePool::new(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        })
        .unwrap();
        let graph = pool.catalog.load("k", &GraphSpec::Karate).unwrap();
        let (tx, rx) = mpsc::channel();

        // the helper alone: a panic is an `Err` and a count, a return is itself
        assert_eq!(contained(&pool, || 7), Ok(7));
        let caught = contained(&pool, || -> u32 { panic!("kernel bug {}", 1) });
        assert_eq!(caught, Err("query panicked: kernel bug 1".to_string()));
        assert_eq!(pool.stats.worker_panics.get(), 1);

        // a batch whose execute step panics: every member is answered
        // `internal`, each under its own id
        let batch = vec![member(&graph, 0, 11, &tx), member(&graph, 1, 12, &tx)];
        run_queries(&pool, 0, batch, Instant::now(), |_, _| panic!("kernel bug"));
        for id in [11, 12] {
            let v = gbtl_util::json::parse(&rx.recv().unwrap()).unwrap();
            assert_eq!(v.bool_field("ok"), Some(false));
            assert_eq!(v.str_field("code"), Some("internal"));
            assert_eq!(v.str_field("error"), Some("query panicked: kernel bug"));
            assert_eq!(v.u64_field("id"), Some(id));
        }
        assert_eq!(pool.stats.worker_panics.get(), 2);

        // the same worker (this thread, engine 0) takes its next job
        let engine = &pool.engines[0];
        let next = vec![member(&graph, 0, 13, &tx)];
        run_queries(&pool, 0, next, Instant::now(), |live, xray| {
            execute(engine, live, xray)
        });
        let v = gbtl_util::json::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(v.bool_field("ok"), Some(true));
        assert_eq!(v.u64_field("id"), Some(13));
    }
}
