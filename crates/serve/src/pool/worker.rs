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

use gbtl_trace::Attr::{Bool, Str, U64};
use gbtl_trace::{emit, tree, Kind, Scope, TraceContext};
use gbtl_util::time::now_ns;

use super::queue::{Job, Member};
use super::render::query_response;
use super::series::PoolStage;
use super::EnginePool;
use crate::cache::CachedResult;
use crate::catalog::GraphEntry;
use crate::engine::Engine as QueryEngine;
use crate::protocol::{error_response, QueryParams};

/// One slow-query log payload (the log's ranking key is the total latency).
#[derive(Debug, Clone)]
pub(super) struct SlowQuery {
    pub(super) request_id: u64,
    /// Span-tree trace id when the request was sampled (0 = untraced).
    /// Traced slow-log entrants are pinned in the tree store so the trace
    /// behind a slow entry stays fetchable after the store would have
    /// evicted it.
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
                let t0_ns = now_ns();
                let queued = Scope {
                    tree: xray,
                    ..Scope::default()
                };
                let worker = [("worker", U64(index as u64))];
                emit(
                    queued,
                    enqueued_ns,
                    t0_ns,
                    Kind::Stage("pool.queue", &worker),
                );
                std::thread::sleep(Duration::from_millis(ms));
                let slept = Scope {
                    stage: Some(pool.series.sleep(&pool.registry)),
                    ..Scope::default()
                };
                emit(slept, t0_ns, now_ns(), Kind::Stage("pool.execute", &[]));
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

/// One member's (result fragment, rendered `"trace"` spans) or error text.
type MemberResult = Result<(String, Option<String>), String>;

/// The execute step: run the live members of one job on a worker's engine,
/// as one kernel picked from the batch size (see the module docs).
fn execute(engine: &QueryEngine, live: &[Member], xray: Option<TraceContext>) -> Vec<MemberResult> {
    let first = &live[0];
    if live.len() > 1 {
        // homogeneous by fuse-key construction: every member asked for
        // this graph epoch, algorithm and backend
        let sources: Vec<(usize, bool)> = live
            .iter()
            .map(|m| (m.params.source, m.params.full))
            .collect();
        let p = &first.params;
        engine
            .run_multi(&first.graph, p.algo, p.backend, &sources, xray)
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
/// contexts clear their stamp on unwind (`engine::Stamps`), pooled kernel
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
/// regression case. What survives executes once, [`contained`]; then each
/// member's window / queue / execute stages are emitted from the job's
/// stamps and the member is completed. If the step panicked, each live
/// member gets an `internal` error under its own id instead.
fn run_queries(
    pool: &EnginePool,
    worker: usize,
    members: Vec<Member>,
    picked_up: Instant,
    execute: impl FnOnce(&[Member], Option<TraceContext>) -> Vec<MemberResult>,
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
    // the fused-batch size each member reports (0 = ran solo)
    let batch = if live.len() > 1 { live.len() as u64 } else { 0 };

    // allocate the execute span's id before the run so the kernel's op
    // spans (emitted by the context *during* it) can parent under it. A
    // batch runs once, so its op spans can only hang in one tree: the
    // first sampled member's.
    let first_sampled = live.iter().position(|m| m.xray.is_some());
    let exec_id = first_sampled.map_or(0, |_| tree::store().next_span_id());
    let exec_child = first_sampled.and_then(|i| live[i].xray.map(|c| c.child_of(exec_id)));

    let t0_ns = now_ns();
    let outcome = contained(pool, || execute(&live, exec_child));
    let t1_ns = now_ns();

    let graph = Arc::clone(&first.graph);
    let mut attrs = vec![
        ("algo", Str(first.params.algo.as_str())),
        ("backend", Str(first.params.backend.as_str())),
        ("graph", Str(&graph.name)),
    ];
    if outcome.is_err() {
        attrs.push(("panicked", Bool(true)));
    }
    // every sampled member's batch span cross-links the others
    let sampled = live.iter().filter_map(|m| m.xray);
    let traces: Vec<String> = sampled.map(|c| c.trace_id.to_string()).collect();
    let traces = traces.join(",");
    if batch > 0 {
        attrs.push(("batch_size", U64(batch)));
        attrs.push(("members", Str(&traces)));
    }
    let executed = if batch > 0 {
        "fuse.batch"
    } else {
        "pool.execute"
    };

    let first_trace = exec_child.map(|c| c.trace_id);
    let mut results = outcome.map(Vec::into_iter);
    for (i, m) in live.into_iter().enumerate() {
        let (result, code) = match &mut results {
            Ok(each) => (each.next().expect("one result per member"), "bad_request"),
            Err(what) => (Err(what.clone()), "internal"),
        };
        // only a member that got a result feeds the stage histograms; a
        // sampled one keeps its spans either way
        let series = pool.series.of(&pool.registry, &m.params, false);
        let scope = |tree, span_id, stage| Scope {
            tree,
            span_id,
            stage: result.is_ok().then(|| series.stage(stage)),
            tracer: None,
        };
        // a lone member's window wait (if it had one) folds into its queue
        // stage; a batch member's is its own, ending at the group's release
        let mut queued_ns = m.enqueued_ns;
        if batch > 0 {
            queued_ns = m.released_ns;
            let algo = [("algo", Str(m.params.algo.as_str()))];
            let window = Kind::Stage("fuse.window", &algo);
            emit(
                scope(m.xray, 0, PoolStage::Window),
                m.enqueued_ns,
                queued_ns,
                window,
            );
        }
        let on = [("worker", U64(worker as u64))];
        let queue = Kind::Stage("pool.queue", &on);
        emit(
            scope(m.xray, 0, PoolStage::Queue),
            queued_ns,
            picked_up_ns,
            queue,
        );
        // one execute span per *sampled* member, each in its own trace and
        // all covering the same shared run; the first carries the id the
        // op spans were parented under
        let span_id = if Some(i) == first_sampled { exec_id } else { 0 };
        let tree = m
            .xray
            .filter(|c| span_id != 0 || Some(c.trace_id) != first_trace);
        let run = Kind::Stage(executed, &attrs);
        emit(scope(tree, span_id, PoolStage::Execute), t0_ns, t1_ns, run);

        let stage_us = ((picked_up_ns - queued_ns) / 1_000, (t1_ns - t0_ns) / 1_000);
        complete_member(pool, m, result, code, stage_us, batch);
    }
}

/// Finish one executed member: cache its result under its own key, render
/// and record the response, reply — or answer `code` with the error text.
fn complete_member(
    pool: &EnginePool,
    m: Member,
    result: MemberResult,
    code: &str,
    (queue_us, execute_us): (u64, u64),
    batch: u64,
) {
    let (result_json, trace_json) = match result {
        Ok(r) => r,
        Err(e) => {
            if code == "bad_request" {
                pool.stats.bad_requests.inc();
            }
            m.reply.send(error_response(code, &e, m.params.id));
            return;
        }
    };
    let entry = CachedResult {
        result_json,
        compute_micros: execute_us,
    };
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
    m.reply.send(response);
}

/// The half of a completion that a computed result and a cache hit share:
/// render the query response, emit the serialize stage, count the served
/// query, record its total latency and offer it to the slow-query log.
///
/// `ran` is `Some((queue_us, batch))` for a result a worker just computed
/// (`batch` is the fused group size it executed in, 0 = solo) and `None`
/// for a cache hit, which `submit` serves through here inline — no
/// [`Member`], no queue. Hits skip the slow log (serving a cached line is
/// never the slow path).
#[allow(clippy::too_many_arguments)]
pub(super) fn render_and_record(
    pool: &EnginePool,
    params: &QueryParams,
    graph: &GraphEntry,
    request_id: u64,
    xray: Option<TraceContext>,
    result: &CachedResult,
    trace_json: Option<&str>,
    ran: Option<(u64, u64)>,
) -> String {
    let t0_ns = now_ns();
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
    let t1_ns = now_ns();
    let series = pool.series.of(&pool.registry, params, ran.is_none());
    let (name, attr) = match ran {
        Some(_) => ("pool.serialize", ("bytes", U64(response.len() as u64))),
        None => ("pool.cache", ("graph", Str(&graph.name))),
    };
    let scope = Scope {
        tree: xray,
        stage: Some(series.stage(PoolStage::Serialize)),
        ..Scope::default()
    };
    emit(scope, t0_ns, t1_ns, Kind::Stage(name, &[attr]));
    let serialize_us = (t1_ns - t0_ns) / 1_000;

    series.requests().inc();
    // the trace id (0 = untraced) is the latency bucket's exemplar and the
    // slow-log entry's span-tree pointer
    let trace_id = xray.map_or(0, |c| c.trace_id);
    let latency = series.latency();
    let Some((queue_us, batch)) = ran else {
        latency.observe_with_exemplar(serialize_us, trace_id);
        return response;
    };
    let execute_us = result.compute_micros;
    let total_us = queue_us + execute_us + serialize_us;
    latency.observe_with_exemplar(total_us, trace_id);
    // the entry is built only if the log admits it
    let admitted = pool.slow_log.offer(total_us, || SlowQuery {
        request_id,
        trace_id,
        batch,
        graph: graph.name.clone(),
        params: params.cache_params(),
        queue_us,
        execute_us,
        serialize_us,
    });
    // a slow-log entrant's trace is the one an operator will want to open
    // later — pin it against store eviction
    if admitted && trace_id != 0 {
        tree::store().pin(trace_id);
    }
    response
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
            enqueued_ns: now_ns(),
            released_ns: 0,
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
