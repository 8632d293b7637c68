//! Scatter-gather for catalog-wide queries (`query_all`).
//!
//! One request fans out into one sub-query per resident graph, each
//! submitted back through the [`gbtl_net::Engine`] contract — so a
//! single-pool server scatters to itself and a sharded router scatters to
//! the owning shard, through the *same* merge code, producing the *same*
//! merged bytes. A collector thread gathers sub-responses until the
//! request deadline (plus a grace period) and then renders
//! whatever arrived: graphs that answered appear in `results` (in catalog
//! order, each labeled with its shard), graphs that did not appear in
//! `missing` and flip `"partial":true`. A slow or draining shard can
//! therefore degrade the answer but never hang it.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use gbtl_net::{Reply, Submission};
use gbtl_trace::Attr::{Str, U64};
use gbtl_trace::{emit, Kind, Scope};
use gbtl_util::json::escape;
use gbtl_util::time::now_ns;

use crate::protocol::QueryParams;

/// How long past the deadline the collector waits for stragglers before
/// it renders a partial merge.
const SCATTER_GRACE: Duration = Duration::from_millis(250);

/// One sub-query target: a graph and the shard that owns it (shard 0 on an
/// unsharded server).
#[derive(Debug, Clone)]
pub struct ScatterTarget {
    /// Catalog graph name.
    pub graph: String,
    /// Owning shard index, echoed into the merged response.
    pub shard: usize,
}

/// Render the canonical single-graph `query` line for one scatter target.
/// Every parameter is spelled out (no server-side defaults left implicit)
/// and the outer request's effective deadline is propagated, so the inner
/// engine gives up exactly when the merge stops waiting.
pub fn query_line(graph: &str, params: &QueryParams, deadline_ms: u64) -> String {
    format!(
        "{{\"op\":\"query\",\"graph\":\"{}\",\"algo\":\"{}\",\"backend\":\"{}\",\
         \"source\":{},\"damping\":{},\"max_iters\":{},\"seed\":{},\
         \"direction\":\"{}\",\"full\":{},\"trace\":{},\"deadline_ms\":{deadline_ms}}}",
        escape(graph),
        params.algo.as_str(),
        params.backend.as_str(),
        params.source,
        params.damping,
        params.max_iters,
        params.seed,
        params.direction.as_str(),
        params.full,
        params.trace,
    )
}

/// Scatter `params` across `targets` and gather into one merged response.
///
/// `submit_one(shard, line, reply, xray)` submits a rendered sub-query;
/// the caller decides what a shard index means (an unsharded pool ignores
/// it and submits to itself). Inline sub-responses (cache hits,
/// rejections) are collected immediately; accepted ones arrive through
/// their replies. Returns [`Submission::Inline`] only for an empty
/// catalog; otherwise `Accepted` with the merged response delivered via
/// `reply` once every target answers or the deadline (+grace) passes.
///
/// When the outer request is x-ray sampled, each target gets its own
/// `router.scatter` span (labeled with shard and graph) recorded when its
/// sub-response lands — a target that never answers leaves no span, so a
/// partial merge is visible as a missing fan-out child. The sub-query is
/// submitted with a context parented *under* that span, so the owning
/// pool's queue/execute spans (and the kernel op spans below them) nest
/// inside the fan-out branch that caused them.
pub fn scatter_query_all(
    targets: Vec<ScatterTarget>,
    params: &QueryParams,
    deadline_ms: u64,
    xray: Option<gbtl_trace::TraceContext>,
    mut submit_one: impl FnMut(usize, &str, Reply, Option<gbtl_trace::TraceContext>) -> Submission,
    reply: Reply,
) -> Submission {
    let id_part = params
        .id
        .map(|i| format!("\"id\":{i},"))
        .unwrap_or_default();
    if targets.is_empty() {
        return Submission::Inline(format!(
            "{{\"ok\":true,{id_part}\"graphs\":0,\"answered\":0,\"partial\":false,\
             \"results\":[],\"missing\":[]}}"
        ));
    }
    // the collector always renders (a possibly partial merge) at this cutoff
    let cutoff = Instant::now() + Duration::from_millis(deadline_ms) + SCATTER_GRACE;

    let (tx, rx) = mpsc::channel::<(usize, String)>();
    for (i, target) in targets.iter().enumerate() {
        let line = query_line(&target.graph, params, deadline_ms);
        let slot_tx = tx.clone();
        // pre-allocate the scatter span id so the sub-query can be parented
        // under it; the span itself is recorded when the answer lands
        let scatter_span = xray.map(|ctx| {
            let span_id = gbtl_trace::tree::store().next_span_id();
            (ctx, span_id, now_ns(), target.shard, target.graph.clone())
        });
        let child = scatter_span
            .as_ref()
            .map(|(ctx, span_id, ..)| ctx.child_of(*span_id));
        let record = move || {
            if let Some((ctx, span_id, start_ns, shard, graph)) = &scatter_span {
                let scope = Scope {
                    tree: Some(*ctx),
                    span_id: *span_id,
                    ..Scope::default()
                };
                let attrs = [("shard", U64(*shard as u64)), ("graph", Str(graph))];
                emit(
                    scope,
                    *start_ns,
                    now_ns(),
                    Kind::Stage("router.scatter", &attrs),
                );
            }
        };
        let record_on_reply = record.clone();
        let sub_reply = Reply::new(move |response: String| {
            record_on_reply();
            let _ = slot_tx.send((i, response));
        });
        if let Submission::Inline(response) = submit_one(target.shard, &line, sub_reply, child) {
            // inline answers bypass the reply, so stamp the span here (the
            // reply contract makes Inline and a send mutually exclusive)
            record();
            let _ = tx.send((i, response));
        }
    }
    drop(tx);

    std::thread::Builder::new()
        .name("gbtl-scatter".into())
        .spawn(move || {
            let n = targets.len();
            let mut slots: Vec<Option<String>> = vec![None; n];
            let mut answered = 0usize;
            while answered < n {
                let left = cutoff.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                match rx.recv_timeout(left) {
                    Ok((i, response)) => {
                        if slots[i].is_none() {
                            slots[i] = Some(response);
                            answered += 1;
                        }
                    }
                    Err(_) => break, // timed out, or every sender vanished
                }
            }
            let mut results = String::from("[");
            let mut missing = String::from("[");
            let mut first_r = true;
            let mut first_m = true;
            for (target, slot) in targets.iter().zip(&slots) {
                match slot {
                    Some(response) => {
                        if !first_r {
                            results.push(',');
                        }
                        first_r = false;
                        results.push_str(&format!(
                            "{{\"graph\":\"{}\",\"shard\":{},\"response\":{response}}}",
                            escape(&target.graph),
                            target.shard
                        ));
                    }
                    None => {
                        if !first_m {
                            missing.push(',');
                        }
                        first_m = false;
                        missing.push_str(&format!(
                            "{{\"graph\":\"{}\",\"shard\":{}}}",
                            escape(&target.graph),
                            target.shard
                        ));
                    }
                }
            }
            results.push(']');
            missing.push(']');
            reply.send(format!(
                "{{\"ok\":true,{id_part}\"graphs\":{n},\"answered\":{answered},\
                 \"partial\":{},\"results\":{results},\"missing\":{missing}}}",
                answered < n
            ));
        })
        .expect("spawn scatter collector");

    Submission::Accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Algo, BackendChoice};
    use std::sync::{Arc, Mutex};

    fn params(id: Option<u64>) -> QueryParams {
        QueryParams {
            id,
            graph: String::new(),
            algo: Algo::Bfs,
            backend: BackendChoice::Par,
            source: 0,
            damping: 0.85,
            max_iters: 100,
            seed: 7,
            direction: gbtl_core::Direction::Auto,
            full: false,
            trace: false,
            deadline_ms: None,
        }
    }

    #[test]
    fn empty_catalog_answers_inline() {
        let p = params(Some(9));
        let sub = scatter_query_all(
            Vec::new(),
            &p,
            50,
            None,
            |_, _, _, _| unreachable!(),
            Reply::new(|_| {}),
        );
        match sub {
            Submission::Inline(r) => {
                assert_eq!(
                    r,
                    "{\"ok\":true,\"id\":9,\"graphs\":0,\"answered\":0,\"partial\":false,\
                     \"results\":[],\"missing\":[]}"
                );
            }
            other => panic!("expected inline, got {other:?}"),
        }
    }

    #[test]
    fn merges_in_target_order_and_labels_missing_as_partial() {
        let targets = vec![
            ScatterTarget {
                graph: "a".into(),
                shard: 0,
            },
            ScatterTarget {
                graph: "b".into(),
                shard: 1,
            },
            ScatterTarget {
                graph: "c".into(),
                shard: 2,
            },
        ];
        let (done_tx, done_rx) = mpsc::channel();
        let reply = Reply::new(move |r: String| {
            let _ = done_tx.send(r);
        });
        let p = params(None);
        // "a" answers inline, "c" answers late via its reply, "b" never
        // answers — the merge must report it missing, not hang.
        let held: Arc<Mutex<Vec<Reply>>> = Arc::new(Mutex::new(Vec::new()));
        let held2 = held.clone();
        let sub = scatter_query_all(
            targets,
            &p,
            100,
            None,
            move |shard, line, sub_reply, _xray| {
                assert!(line.contains("\"deadline_ms\":100"), "{line}");
                match shard {
                    0 => Submission::Inline("{\"ok\":true,\"who\":\"a\"}".into()),
                    2 => {
                        let r = sub_reply;
                        std::thread::spawn(move || {
                            std::thread::sleep(Duration::from_millis(20));
                            r.send("{\"ok\":true,\"who\":\"c\"}".into());
                        });
                        Submission::Accepted
                    }
                    _ => {
                        gbtl_util::sync::lock(&held2).push(sub_reply);
                        Submission::Accepted
                    }
                }
            },
            reply,
        );
        assert!(matches!(sub, Submission::Accepted));
        let merged = done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            merged,
            "{\"ok\":true,\"graphs\":3,\"answered\":2,\"partial\":true,\"results\":[\
             {\"graph\":\"a\",\"shard\":0,\"response\":{\"ok\":true,\"who\":\"a\"}},\
             {\"graph\":\"c\",\"shard\":2,\"response\":{\"ok\":true,\"who\":\"c\"}}],\
             \"missing\":[{\"graph\":\"b\",\"shard\":1}]}"
        );
        drop(held);
    }
}
