//! The per-query metric series, resolved once each.
//!
//! Every served query counts itself in `gbtl_requests_total`, observes
//! `gbtl_request_latency_us` and feeds up to four `gbtl_stage_latency_us`
//! stages, all labelled by its (`algo`, `backend`, `cache`) triple. A
//! [`Registry`] lookup builds a key and takes the registry's mutex, so the
//! pool resolves each series the first time it is observed and keeps the
//! handle here: after that a request's metrics are relaxed atomics. A
//! series is still created on first use, never eagerly, so the exposition
//! lists exactly the series a `Registry` lookup per request would have.

use std::sync::{Arc, OnceLock};

use gbtl_trace::metrics::{Counter, Histogram, Registry};
use gbtl_trace::Stage;

use crate::protocol::{Algo, BackendChoice, QueryParams};

/// The stages of a query the pool times, in `gbtl_stage_latency_us`'s
/// `stage` label.
#[derive(Debug, Clone, Copy)]
pub(super) enum PoolStage {
    /// A fused member's wait in the fusion window.
    Window,
    /// Admission to pick-up by a worker.
    Queue,
    /// The engine run.
    Execute,
    /// Rendering the response.
    Serialize,
}

const STAGES: [&str; 4] = ["window", "queue", "execute", "serialize"];

/// One (`algo`, `backend`, `cache`) triple's series, each filled on first use.
#[derive(Debug, Default)]
struct Slot {
    requests: OnceLock<Arc<Counter>>,
    latency: OnceLock<Arc<Histogram>>,
    stages: [OnceLock<Arc<Histogram>>; STAGES.len()],
}

/// The pool's table of per-query series handles, plus the one series a
/// `sleep` job feeds.
#[derive(Debug, Default)]
pub(super) struct SeriesTable {
    /// Indexed `[algo][backend][hit]`; the enums' `ALL` lists size it.
    slots: [[[Slot; 2]; BackendChoice::ALL.len()]; Algo::ALL.len()],
    sleep: OnceLock<Arc<Histogram>>,
}

impl SeriesTable {
    /// The series of `params`' algorithm and backend, answered from the
    /// cache (`hit`) or executed.
    pub(super) fn of<'a>(
        &'a self,
        registry: &'a Registry,
        params: &QueryParams,
        hit: bool,
    ) -> Series<'a> {
        let (algo, backend) = (params.algo, params.backend);
        let cache = if hit { "hit" } else { "miss" };
        Series {
            registry,
            slot: &self.slots[algo as usize][backend as usize][hit as usize],
            labels: [
                ("algo", algo.as_str()),
                ("backend", backend.as_str()),
                ("cache", cache),
            ],
        }
    }

    /// A `sleep` job's execute stage.
    pub(super) fn sleep<'a>(&'a self, registry: &Registry) -> Stage<'a> {
        let labels = [("algo", "sleep"), ("backend", "none"), ("cache", "miss")];
        Stage(
            self.sleep
                .get_or_init(|| registry.stage_histogram(labels, "execute")),
        )
    }
}

/// One query's view of its triple's series.
pub(super) struct Series<'a> {
    registry: &'a Registry,
    slot: &'a Slot,
    labels: [(&'static str, &'static str); 3],
}

impl<'a> Series<'a> {
    /// `gbtl_requests_total`.
    pub(super) fn requests(&self) -> &'a Counter {
        self.slot
            .requests
            .get_or_init(|| self.registry.counter("gbtl_requests_total", &self.labels))
    }

    /// `gbtl_request_latency_us`.
    pub(super) fn latency(&self) -> &'a Histogram {
        self.slot.latency.get_or_init(|| {
            self.registry
                .histogram("gbtl_request_latency_us", &self.labels)
        })
    }

    /// One stage of `gbtl_stage_latency_us`, as the sink [`gbtl_trace::emit`]
    /// observes.
    pub(super) fn stage(&self, stage: PoolStage) -> Stage<'a> {
        let i = stage as usize;
        Stage(
            self.slot.stages[i]
                .get_or_init(|| self.registry.stage_histogram(self.labels, STAGES[i])),
        )
    }
}
