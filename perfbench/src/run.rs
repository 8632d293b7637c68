//! What every workload has in common: the round record, the replay loop
//! that repeats one fixed round until the timed phase ends, and the
//! reduction of per-round values to the ten end-to-end metrics.
//!
//! **How a timing is reduced.** The shared host's speed moves in phases of
//! seconds to minutes between levels up to 2× apart, and on top of that
//! steals a time slice now and then. Two steps take both out:
//!
//! 1. *Every round is put on the reference host's clock.* A fixed piece of
//!    harness-owned work, the [`SpeedProbe`], is timed just before and just
//!    after the round, and inside it about every [`Pace::EVERY`] wherever
//!    the workload is quiescent (between library solves, between wire
//!    steps with nothing in flight); every time measured between two
//!    readings is multiplied by reference probe time ÷ measured probe time
//!    ([`host_scale`]). A round played in a slow phase and one played in a
//!    fast phase then read the same.
//! 2. *Every slot is reduced over rounds by its lower quartile.* A round is
//!    cut into *slots* — a library solve, a wire request, or a window of
//!    consecutive wire responses — and slot `j` holds the same operations
//!    in every round. What is left after step 1 only ever adds time (a
//!    stolen slice, a page fault), so the slot's time is the value a
//!    quarter of its rounds stay under: low enough that disturbed rounds do
//!    not count, not so low that one lucky probe reading decides it. A rate
//!    is the round's work over the sum of its slots' times, a latency the
//!    middle ([`mid_mean`]) over the round's operations of each operation's
//!    time.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host::{host_scale, Family, Reading, SpeedProbe};
use crate::spans::Recorder;
use crate::stats::{median, mid_mean, quantile, ratio};

/// Backend order used in every per-backend array.
pub const BACKENDS: [&str; 3] = ["seq", "par", "cuda"];

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Sizing and mode of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an end-to-end run.
    pub trace: bool,
    /// Tiny graphs, one timed round: the pre-flight.
    pub smoke: bool,
}

/// One replay of the workload's fixed operation list.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Wall time of the round, seconds.
    pub wall_s: f64,
    /// Operations that completed correctly (algorithm calls or `ok:true`
    /// responses with the expected payload).
    pub ok: u64,
    /// Operations that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// Latency of every operation, ms.
    pub lat_ms: Vec<f32>,
    /// The round's slots, in order; the same count and contents every round.
    pub slots: Vec<Slot>,
    /// Modeled device time the round's cuda-sim work added, ms.
    pub cuda_model_ms: f64,
    /// Latency of each reload (`{"op":"load"}`, or the library's rebuild).
    pub reload_ms: Vec<f64>,
    /// Latency of each `query_all` scatter-gather, ms.
    pub scatter_ms: Vec<f64>,
    /// Resident set when the round ended, MB.
    pub rss_mb: f64,
    /// CPU seconds the generator thread(s) used playing the round.
    pub gen_cpu_s: f64,
    /// Whether harness spans were on during this round.
    pub traced: bool,
    /// What the round's slot times were multiplied by, on the whole, to
    /// put them on the reference host's clock (0 = not rescaled).
    pub host_scale: f64,
}

/// One timed piece of a round: a library solve, or a window of consecutive
/// wire responses.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Slot {
    /// Wall time from the end of the previous slot to the end of this one.
    pub wall_s: f64,
    /// Operations answered in it.
    pub ops: u64,
    /// Σ nnz(A) of the solves each backend answered in it.
    pub nnz: [u64; 3],
    /// Seconds of the slot that count as each backend's: the solve's wall
    /// in a library round; on the wire the slot's wall shared out by how
    /// many of its requests each backend answered.
    pub secs: [f64; 3],
}

/// How far a round had come when the probe was read.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    slots: usize,
    lats: usize,
    reloads: usize,
    scatters: usize,
    reading: Reading,
}

impl Mark {
    fn at(round: &Round, reading: Reading) -> Mark {
        Mark {
            slots: round.slots.len(),
            lats: round.lat_ms.len(),
            reloads: round.reload_ms.len(),
            scatters: round.scatter_ms.len(),
            reading,
        }
    }
}

/// The probe readings of one round: `replay` reads before and after, the
/// workload calls [`Pace::tick`] wherever it is quiescent inside.
#[derive(Debug)]
pub struct Pace {
    probe: SpeedProbe,
    last: Instant,
    marks: Vec<Mark>,
}

impl Default for Pace {
    fn default() -> Self {
        Self::new()
    }
}

impl Pace {
    /// Time between two readings inside a round. The host's phases last
    /// seconds; a reading costs 2 ms.
    pub const EVERY: std::time::Duration = std::time::Duration::from_millis(100);

    /// A pace with a probe of its own and no readings yet.
    pub fn new() -> Pace {
        Pace {
            probe: SpeedProbe::new(),
            last: Instant::now(),
            marks: Vec::new(),
        }
    }

    fn mark(&mut self, round: &Round) {
        let reading = self.probe.read();
        self.marks.push(Mark::at(round, reading));
        self.last = Instant::now();
    }

    /// Read the probe if [`Pace::EVERY`] has passed since the last reading.
    /// Call only where nothing of the workload is running or in flight —
    /// a reading taken while the stack's own threads want the CPU reads
    /// their work as a slow host — and outside every timed span. Returns
    /// whether it read, so a caller timing from "the end of the previous
    /// slot" can restart its clock.
    pub fn tick(&mut self, round: &Round) -> bool {
        if self.last.elapsed() < Self::EVERY {
            return false;
        }
        self.mark(round);
        true
    }

    /// Put every time `round` measured on the reference host's clock:
    /// what lies between two consecutive marks is multiplied by their
    /// [`host_scale`] (1 without a `family`). Consumes the marks; the last
    /// reading stays as the first of the next round.
    fn rescale(&mut self, round: &mut Round, family: Option<Family>) {
        let marks = std::mem::take(&mut self.marks);
        if let Some(last) = marks.last() {
            self.marks.push(Mark {
                reading: last.reading,
                ..Mark::default()
            });
        }
        let (mut raw, mut scaled) = (0.0, 0.0);
        let mut scales = Vec::new();
        for pair in marks.windows(2) {
            let (from, to) = (pair[0], pair[1]);
            let scale = family.map_or(1.0, |f| host_scale(from.reading, to.reading, f));
            scales.push(scale);
            for slot in &mut round.slots[from.slots..to.slots] {
                raw += slot.wall_s;
                slot.wall_s *= scale;
                scaled += slot.wall_s;
                for secs in &mut slot.secs {
                    *secs *= scale;
                }
            }
            for l in &mut round.lat_ms[from.lats..to.lats] {
                *l *= scale as f32;
            }
            for ms in &mut round.reload_ms[from.reloads..to.reloads] {
                *ms *= scale;
            }
            for ms in &mut round.scatter_ms[from.scatters..to.scatters] {
                *ms *= scale;
            }
        }
        round.host_scale = if raw > 0.0 {
            scaled / raw
        } else {
            scales.iter().sum::<f64>() / scales.len().max(1) as f64
        };
        round.wall_s *= round.host_scale;
    }
}

/// A workload: set up once, then replay one fixed, seeded round.
pub trait Workload {
    /// Replay the round. Identical operations every call.
    fn round(&mut self, rec: &mut Recorder, pace: &mut Pace) -> Round;

    /// Untimed work between rounds that still yields samples: the reload,
    /// and reading the server's device clock for the round just played.
    fn between(&mut self, last: &mut Round);

    /// Which probe parts this workload's timings follow.
    fn family(&self) -> Family;

    /// Switch the stack's own tracing with the harness's (traced rounds
    /// run the library contexts in `TraceMode::Summary`).
    fn set_tracing(&mut self, _on: bool) {}

    /// Per-layer metrics only this workload's own run can supply.
    fn layer_metrics(&mut self, _m: &mut Metrics) {}

    /// Stop servers, join threads, remove files.
    fn teardown(self: Box<Self>);
}

/// Replay `w`'s round until `seconds` have passed (at least `min_rounds`
/// times), reading the host-speed probe around every round and putting
/// the round's times on the reference host's clock. In a traced run every
/// other round has spans on, so one run yields both sides of the
/// tracing-overhead comparison, and times stay as measured.
pub fn replay(
    w: &mut dyn Workload,
    rec: &mut Recorder,
    seconds: f64,
    min_rounds: usize,
    trace: bool,
) -> Vec<Round> {
    let mut rounds: Vec<Round> = Vec::new();
    let family = w.family();
    let mut pace = Pace::new();
    let t0 = Instant::now();
    let mut longest = 0.0f64;
    pace.mark(&Round::default());
    loop {
        let traced = trace && rounds.len() % 2 == 1;
        if trace {
            w.set_tracing(traced);
            rec.set_enabled(traced);
        }
        let mut r = w.round(rec, &mut pace);
        pace.mark(&r);
        r.traced = traced;
        r.rss_mb = crate::host::rss_mb();
        longest = longest.max(r.wall_s);
        // the reloads played between two rounds get readings of their own
        w.between(&mut r);
        pace.mark(&r);
        // a traced run's numbers stay raw: its ladder and probes are, and
        // a layer's share is read against them
        pace.rescale(&mut r, if trace { None } else { Some(family) });
        rounds.push(r);
        // stop before a round that would overrun the phase
        if rounds.len() >= min_rounds && t0.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
    if trace {
        w.set_tracing(false);
        rec.set_enabled(false);
    }
    rounds
}

/// The share of a slot's rounds that its reported time stays above: the
/// lower quartile (see the module text).
pub const SLOT_QUANTILE: f64 = 0.25;

/// `Σ_j` of the [`SLOT_QUANTILE`] over rounds of `series(round)[j]`: what
/// the round's pieces take, added up, when nothing disturbs them. Rounds
/// cut short by a dead connection only count for the positions they
/// reached.
fn slot_sum(rounds: &[Round], series: impl Fn(&Round) -> Vec<f64>) -> f64 {
    slot_times(rounds, series).iter().sum()
}

/// The [`SLOT_QUANTILE`] over rounds of every position of `series(round)`.
fn slot_times(rounds: &[Round], series: impl Fn(&Round) -> Vec<f64>) -> Vec<f64> {
    let all: Vec<Vec<f64>> = rounds.iter().map(series).collect();
    let len = all.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .map(|j| {
            let over_rounds: Vec<f64> = all.iter().filter_map(|s| s.get(j).copied()).collect();
            quantile(&over_rounds, SLOT_QUANTILE)
        })
        .collect()
}

/// The work of one round: `Σ_j work(slot j)`.
fn round_work(rounds: &[Round], work: impl Fn(&Slot) -> u64) -> f64 {
    rounds.first().map_or(0, |r| r.slots.iter().map(work).sum()) as f64
}

/// Operations per second: the round's operation count over the sum of its
/// slots' times.
pub fn throughput(rounds: &[Round]) -> f64 {
    let wall = slot_sum(rounds, |r| r.slots.iter().map(|s| s.wall_s).collect());
    ratio(round_work(rounds, |s| s.ops), wall)
}

/// All operation latencies of the given rounds, ms.
pub fn latencies(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| r.lat_ms.iter().map(|&l| f64::from(l)))
        .collect()
}

/// The end-to-end metrics of a finished timed phase (everything but
/// `setup_s`, which the caller measured around set-up).
pub fn end_to_end(rounds: &[Round], m: &mut Metrics) -> (u64, u64) {
    for (b, name) in ["seq_mteps", "par_mteps", "cuda_host_mteps"]
        .into_iter()
        .enumerate()
    {
        let secs = slot_sum(rounds, |r| r.slots.iter().map(|s| s.secs[b]).collect());
        m.insert(name, ratio(round_work(rounds, |s| s.nnz[b]), secs) / 1e6);
    }
    m.insert(
        "cuda_model_ms",
        median(&rounds.iter().map(|r| r.cuda_model_ms).collect::<Vec<_>>()),
    );
    m.insert("qps", throughput(rounds));
    let lat = slot_times(rounds, |r| r.lat_ms.iter().map(|&l| f64::from(l)).collect());
    // the middle of a clustered sample: see `mid_mean`
    m.insert("latency_ms_p50", mid_mean(&lat));
    let reloads = slot_times(rounds, |r| r.reload_ms.clone());
    m.insert("reload_ms_p50", median(&reloads));
    m.insert(
        "rss_mb",
        median(&rounds.iter().map(|r| r.rss_mb).collect::<Vec<_>>()),
    );
    let ok: u64 = rounds.iter().map(|r| r.ok).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let attempted = ok + failed;
    m.insert("ok_share", ratio(ok as f64, attempted as f64));
    (attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        calls: usize,
    }

    impl Workload for Fake {
        fn round(&mut self, rec: &mut Recorder, _pace: &mut Pace) -> Round {
            let id = rec.enter("round", self.calls as u64);
            self.calls += 1;
            rec.exit(id);
            Round {
                wall_s: 0.5,
                ok: 10,
                lat_ms: vec![1.0; 10],
                slots: vec![
                    Slot {
                        wall_s: 0.25,
                        ops: 5,
                        nnz: [100, 0, 0],
                        secs: [0.25, 0.0, 0.0],
                    },
                    Slot {
                        wall_s: 0.25,
                        ops: 5,
                        nnz: [0, 200, 0],
                        secs: [0.0, 0.25, 0.0],
                    },
                ],
                cuda_model_ms: 3.0,
                ..Round::default()
            }
        }
        fn between(&mut self, last: &mut Round) {
            last.reload_ms.push(7.0);
        }
        fn family(&self) -> Family {
            Family::Library
        }
        fn teardown(self: Box<Self>) {}
    }

    #[test]
    fn replay_runs_min_rounds_and_alternates_tracing() {
        let mut w = Fake { calls: 0 };
        let mut rec = Recorder::new();
        let rounds = replay(&mut w, &mut rec, 0.0, 4, true);
        assert_eq!(rounds.len(), 4);
        assert_eq!(
            rounds.iter().map(|r| r.traced).collect::<Vec<_>>(),
            [false, true, false, true]
        );
        assert_eq!(rec.spans().len(), 2, "only traced rounds record spans");
        assert!(
            rounds
                .iter()
                .all(|r| r.host_scale == 1.0 && r.wall_s == 0.5),
            "a traced run's times stay as measured"
        );
        // an end-to-end run: every round on the reference clock
        for r in &replay(&mut w, &mut rec, 0.0, 2, false) {
            assert!(r.host_scale > 0.0 && r.host_scale != 1.0);
            assert!((r.wall_s - 0.5 * r.host_scale).abs() < 1e-12);
            assert!((r.slots[0].wall_s - 0.25 * r.host_scale).abs() < 1e-12);
        }
    }

    #[test]
    fn a_rate_is_the_work_over_the_sum_of_the_slots_lower_quartiles() {
        let round = |walls: [f64; 2]| Round {
            slots: walls
                .iter()
                .map(|&wall_s| Slot {
                    wall_s,
                    ops: 3,
                    nnz: [60, 0, 0],
                    secs: [wall_s, 0.0, 0.0],
                })
                .collect(),
            lat_ms: walls.iter().map(|w| (w * 1e3) as f32).collect(),
            ..Round::default()
        };
        // each round is disturbed in another slot; no round is clean, and
        // one reading per slot is too good to be true
        let rounds = [
            round([0.5, 4.0]),
            round([3.0, 0.25]),
            round([0.125, 0.25]),
            round([0.5, 0.0625]),
            round([1.0, 1.0]),
        ];
        // second smallest of five: 0.5 and 0.25
        assert_eq!(throughput(&rounds), 6.0 / 0.75);
        let mut m = Metrics::new();
        end_to_end(&rounds, &mut m);
        assert_eq!(m["seq_mteps"], 120.0 / 0.75 / 1e6);
        assert_eq!(m["par_mteps"], 0.0);
        assert_eq!(m["latency_ms_p50"], (500.0 + 250.0) / 2.0);
    }

    #[test]
    fn rescaling_puts_each_stretch_of_a_round_on_the_reference_clock() {
        let slot = |wall_s: f64| Slot {
            wall_s,
            ops: 2,
            nnz: [5, 0, 0],
            secs: [wall_s, 0.0, 0.0],
        };
        let mut r = Round {
            wall_s: 6.0,
            lat_ms: vec![10.0, 20.0],
            slots: vec![slot(2.0), slot(4.0)],
            reload_ms: vec![8.0],
            scatter_ms: vec![4.0],
            cuda_model_ms: 3.0,
            ..Round::default()
        };
        let at = |factor: f64| Reading {
            compute_ms: crate::host::REF_COMPUTE_MS * factor,
            kernel_ms: crate::host::REF_KERNEL_MS * factor,
        };
        // a reference-speed host for the first slot, one half as fast from
        // there on; the reload came after the round
        let mut pace = Pace::new();
        pace.marks = vec![
            Mark::at(&Round::default(), at(1.0)),
            Mark {
                slots: 1,
                lats: 1,
                reloads: 0,
                scatters: 0,
                reading: at(1.0),
            },
            Mark {
                slots: 2,
                lats: 2,
                reloads: 0,
                scatters: 1,
                reading: at(3.0),
            },
            Mark::at(&r, at(5.0)),
        ];
        pace.rescale(&mut r, Some(Family::Library));
        assert_eq!(r.slots[0].wall_s, 2.0);
        assert_eq!((r.slots[1].wall_s, r.slots[1].secs[0]), (2.0, 2.0));
        assert_eq!(r.lat_ms, [10.0, 10.0]);
        assert_eq!(r.scatter_ms, [2.0]);
        assert_eq!(r.reload_ms, [2.0], "between readings 3 and 5: a quarter");
        assert_eq!(
            (r.slots[1].ops, r.slots[1].nnz[0]),
            (2, 5),
            "work is not a time"
        );
        assert_eq!(r.cuda_model_ms, 3.0, "modeled time is not the host's");
        assert_eq!(r.host_scale, 4.0 / 6.0);
        assert_eq!(r.wall_s, 4.0);
        assert_eq!(pace.marks.len(), 1, "the last reading opens the next round");
        assert_eq!(pace.marks[0].slots, 0);
    }

    #[test]
    fn end_to_end_reduces_rounds_to_the_declared_metrics() {
        let mut w = Fake { calls: 0 };
        let mut rec = Recorder::new();
        // played by hand: `replay` would put the fake's constant times on
        // the reference clock of whatever host runs the test
        let rounds: Vec<Round> = (0..3)
            .map(|_| {
                let mut r = w.round(&mut rec, &mut Pace::new());
                w.between(&mut r);
                r
            })
            .collect();
        let mut m = Metrics::new();
        let (attempted, failed) = end_to_end(&rounds, &mut m);
        assert_eq!((attempted, failed), (30, 0));
        assert_eq!(m["qps"], 20.0);
        assert_eq!(m["seq_mteps"], 100.0 / 0.25 / 1e6);
        assert_eq!(m["par_mteps"], 200.0 / 0.25 / 1e6);
        assert_eq!(m["cuda_host_mteps"], 0.0); // no cuda work in the fake
        assert_eq!(m["cuda_model_ms"], 3.0);
        assert_eq!(m["latency_ms_p50"], 1.0);
        assert_eq!(m["reload_ms_p50"], 7.0);
        assert_eq!(m["ok_share"], 1.0);
        for d in crate::catalogue::END_TO_END {
            assert!(d.name == "setup_s" || m.contains_key(d.name), "{}", d.name);
        }
    }
}
