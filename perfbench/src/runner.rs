//! One run of one workload, start to finish: set-up (timed between two
//! host-speed readings, and repeated in fresh child processes), warm-up, the
//! timed replay, the metrics, and — in a traced run — the ladder, the
//! layer probes and the Chrome trace file.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use gbtl_core::direction_counters;

use crate::catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::host::{host_scale, Family, SpeedProbe};
use crate::libwork::{LibKind, LibWorkload};
use crate::run::{end_to_end, latencies, replay, Metrics, Round, RunConfig, Workload};
use crate::spans::{chrome_json, self_time_by_name, Recorder};
use crate::stats::{percentile, ratio};
use crate::wirework::{served_graphs, snapshot_dir, write_snapshots, WireKind, WireWorkload};

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// A library workload.
    Lib(LibKind),
    /// A wire workload.
    Wire(WireKind),
}

impl Which {
    /// Parse a declared workload name.
    pub fn parse(name: &str) -> Option<Which> {
        Some(match name {
            "lib-traverse" => Which::Lib(LibKind::Traverse),
            "lib-algebra" => Which::Lib(LibKind::Algebra),
            "serve-cold" => Which::Wire(WireKind::Cold),
            "wire-hot" => Which::Wire(WireKind::Hot),
            "shard-burst" => Which::Wire(WireKind::Burst),
            _ => return None,
        })
    }
}

/// A set-up workload of either family.
#[derive(Debug)]
enum Ready {
    Lib(Box<LibWorkload>),
    Wire(Box<WireWorkload>),
}

impl Ready {
    fn workload(&mut self) -> &mut dyn Workload {
        match self {
            Ready::Lib(w) => w.as_mut(),
            Ready::Wire(w) => w.as_mut(),
        }
    }
}

/// What the caller of [`run`] wants beyond the [`RunConfig`].
#[derive(Debug, Clone, Default)]
pub struct Extra {
    /// Stop after set-up and report only its time (the child-process mode
    /// the parent uses to sample `setup_s` afresh).
    pub setup_only: bool,
    /// Directory holding the `.gbsnap` files `shard-burst` restores from;
    /// `None` = write them first.
    pub snap_dir: Option<PathBuf>,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every operation answered correctly and every metric is a number.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The run's metrics: end-to-end, or per-layer in a traced run.
    pub metrics: Metrics,
    /// A JSON object with what does not fit the result line: per-round
    /// walls, set-up samples, the noisy flag (the suite adds the
    /// environment record once per file).
    pub detail: String,
}

impl Outcome {
    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let unit = crate::catalogue::find(name).map_or("", |d| d.unit);
            let _ = write!(s, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// Fresh-process set-ups per end-to-end run: at least two, and more —
/// up to eight — while they have taken less than [`SETUP_BUDGET_S`] in
/// all, so the 40 ms set-up of a wire workload is sampled nine times (with
/// this process's own) and a 1 s set-up three. Every sample is put on the
/// reference host's clock by the process that took it; `setup_s` is their
/// lower quartile, like every other time (`run::SLOT_QUANTILE`).
const SETUP_CHILDREN: std::ops::RangeInclusive<usize> = 2..=8;
/// See [`SETUP_CHILDREN`].
const SETUP_BUDGET_S: f64 = 2.0;

/// Time set-up in fresh processes (this executable, `--setup-only`), one
/// after another.
fn setup_in_children(name: &str, cfg: &RunConfig, snap: Option<&Path>) -> Vec<f64> {
    let Ok(exe) = std::env::current_exe() else {
        return Vec::new();
    };
    let mut samples = Vec::new();
    let t0 = Instant::now();
    for child in 0..*SETUP_CHILDREN.end() {
        if child >= *SETUP_CHILDREN.start() && t0.elapsed().as_secs_f64() > SETUP_BUDGET_S {
            break;
        }
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &cfg.seed.to_string()])
            .args(["--seconds", "0", "--trace", "0", "--setup-only"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some(dir) = snap {
            cmd.arg("--snap-dir").arg(dir);
        }
        if cfg.smoke {
            cmd.arg("--smoke");
        }
        // `output` waits for the child to end
        match cmd.output() {
            Ok(out) if out.status.success() => {
                let text = String::from_utf8_lossy(&out.stdout);
                let sample = text
                    .lines()
                    .last()
                    .and_then(|l| gbtl_util::json::parse(l).ok())
                    .and_then(|v| v.f64_field("setup_s"));
                match sample {
                    Some(s) => samples.push(s),
                    None => eprintln!("perfbench: set-up child printed no setup_s"),
                }
            }
            Ok(out) => eprintln!("perfbench: set-up child failed: {}", out.status),
            Err(e) => eprintln!("perfbench: cannot start set-up child: {e}"),
        }
    }
    samples
}

fn setup(which: Which, cfg: &RunConfig, snap: Option<&Path>) -> Result<Ready, String> {
    Ok(match which {
        Which::Lib(kind) => Ready::Lib(Box::new(LibWorkload::setup(kind, cfg)?)),
        Which::Wire(kind) => Ready::Wire(Box::new(WireWorkload::setup(kind, cfg, snap)?)),
    })
}

/// Run workload `name` once.
pub fn run(name: &str, cfg: &RunConfig, extra: &Extra) -> Result<Outcome, String> {
    let which = Which::parse(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        format!("unknown workload {name:?} (expected one of {names:?})")
    })?;
    // (a set-up child reports only its set-up time)
    let spin_before = if extra.setup_only {
        0.0
    } else {
        crate::host::spin_ms()
    };

    // shard-burst restores from snapshots: write them once, for this
    // process and its set-up children alike
    let mut own_snap_dir = None;
    let snap_dir: Option<PathBuf> = match (which, &extra.snap_dir) {
        (Which::Wire(WireKind::Burst), None) => {
            let dir = snapshot_dir();
            write_snapshots(&dir, &served_graphs(WireKind::Burst, cfg.smoke))?;
            own_snap_dir = Some(dir.clone());
            Some(dir)
        }
        (_, given) => given.clone(),
    };
    let result = run_prepared(name, which, cfg, extra, snap_dir.as_deref(), spin_before);
    if let Some(dir) = own_snap_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    result
}

fn run_prepared(
    name: &str,
    which: Which,
    cfg: &RunConfig,
    extra: &Extra,
    snap: Option<&Path>,
    spin_before: f64,
) -> Result<Outcome, String> {
    // set-up, several times: fresh processes first, then this one
    let mut setup_samples = if extra.setup_only || cfg.trace || cfg.smoke {
        Vec::new()
    } else {
        setup_in_children(name, cfg, snap)
    };
    // this process's own set-up, on the reference host's clock like every
    // other time (the children did the same with theirs)
    let family = match which {
        Which::Lib(_) => Family::Library,
        Which::Wire(_) => Family::Wire,
    };
    let mut probe = SpeedProbe::new();
    let before = probe.read();
    let t0 = Instant::now();
    let mut ready = setup(which, cfg, snap)?;
    let took = t0.elapsed().as_secs_f64();
    setup_samples.push(took * host_scale(before, probe.read(), family));
    drop(probe);
    if extra.setup_only {
        teardown(ready);
        let mut metrics = Metrics::new();
        metrics.insert("setup_s", setup_samples[0]);
        return Ok(Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics,
            detail: format!("{{\"setup_s\":{}}}", setup_samples[0]),
        });
    }

    let outcome = measure(name, cfg, &mut ready, &setup_samples, spin_before);
    teardown(ready);
    outcome
}

fn teardown(ready: Ready) {
    match ready {
        Ready::Lib(w) => w.teardown(),
        Ready::Wire(w) => w.teardown(),
    }
}

fn measure(
    name: &str,
    cfg: &RunConfig,
    ready: &mut Ready,
    setup_samples: &[f64],
    spin_before: f64,
) -> Result<Outcome, String> {
    match ready {
        Ready::Lib(w) => w.warm_up()?,
        Ready::Wire(w) => w.warm_up(cfg)?,
    }
    let mut rec = Recorder::new();
    let min_rounds = match (cfg.trace, cfg.smoke) {
        (false, true) => 1,
        (true, true) => 2,
        (false, false) => 3,
        (true, false) => 4,
    };
    let directions_before = direction_counters();
    let phase = Instant::now();
    // a traced run replays for half the phase: its other half goes to the
    // ladder and the probes, so both kinds of run cost about the same
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let rounds = replay(ready.workload(), &mut rec, seconds, min_rounds, cfg.trace);
    let phase_s = phase.elapsed().as_secs_f64();
    let directions = (directions_before, direction_counters());

    let mut m = Metrics::new();
    let (attempted, failed);
    let mut extra_detail = String::new();
    if cfg.trace {
        attempted = rounds.iter().map(|r| r.ok + r.failed).sum();
        failed = rounds.iter().map(|r| r.failed).sum::<u64>();
        crate::layers::from_process(&rounds, directions, &mut m);
        extra_detail = per_layer(name, cfg, ready, &rounds, &rec, &mut m)?;
    } else {
        (attempted, failed) = end_to_end(&rounds, &mut m);
        m.insert(
            "setup_s",
            crate::stats::quantile(setup_samples, crate::run::SLOT_QUANTILE),
        );
    }

    let spin_after = crate::host::spin_ms();
    let drift = (spin_after / spin_before - 1.0).abs();
    if cfg.trace {
        m.insert("client.host_spin_drift", drift);
    }

    // exactly the declared metrics, each a finite number
    let declared: &[crate::catalogue::MetricDef] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut correct = failed == 0 && attempted > 0;
    for d in declared {
        match m.get(d.name) {
            Some(v) if v.is_finite() => {}
            other => {
                eprintln!("perfbench: metric {} is {other:?}", d.name);
                correct = false;
                m.insert(d.name, 0.0);
            }
        }
    }
    m.retain(|name, _| declared.iter().any(|d| d.name == *name));

    let join = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let slot_walls: Vec<String> = rounds
        .iter()
        .map(|r| {
            format!(
                "[{}]",
                join(&r.slots.iter().map(|s| s.wall_s).collect::<Vec<_>>())
            )
        })
        .collect();
    let detail = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\
         \"noisy\":{},\"spin_drift\":{drift},\"rss_mb_peak\":{},\"rounds\":{},\"phase_s\":{phase_s},\
         \"round_wall_s\":[{}],\"slot_wall_s\":[{}],\"host_scale\":[{}],\"setup_samples_s\":[{}]{extra_detail}}}",
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.smoke,
        drift > 0.10,
        crate::host::rss_peak_mb(),
        rounds.len(),
        join(&walls),
        slot_walls.join(","),
        join(&rounds.iter().map(|r| r.host_scale).collect::<Vec<_>>()),
        join(setup_samples),
    );
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
        detail,
    })
}

/// The per-layer half of a traced run: workload counters, the ladder, the
/// probes, and the trace file. Returns what it adds to the detail record.
fn per_layer(
    name: &str,
    cfg: &RunConfig,
    ready: &mut Ready,
    rounds: &[Round],
    rec: &Recorder,
    m: &mut Metrics,
) -> Result<String, String> {
    let mut detail = String::new();
    ready.workload().layer_metrics(m);
    let loaded_p50 = percentile(&latencies(rounds), 50.0);
    let unloaded_p50 = match ready {
        Ready::Lib(w) => {
            crate::layers::library_zeros(m);
            crate::ladder::library(m);
            let _ = write!(detail, ",\"ops\":{}", ops_json(w));
            loaded_p50
        }
        Ready::Wire(w) => {
            let l = crate::ladder::run(w.kind(), cfg.smoke, &w.query_lines(), m)?;
            let rungs: Vec<String> = l.rungs_ms.iter().map(f64::to_string).collect();
            let _ = write!(detail, ",\"ladder_rungs_ms\":[{}]", rungs.join(","));
            l.top_p50_ms
        }
    };
    m.insert(
        "client.ladder_residual_share",
        ratio((loaded_p50 - unloaded_p50).max(0.0), loaded_p50),
    );
    let gen_cpu: f64 = rounds.iter().map(|r| r.gen_cpu_s).sum();
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    m.insert(
        "client.cpu_share",
        ratio(gen_cpu, wall * crate::host::nproc() as f64),
    );
    crate::layers::probes(cfg.smoke, &crate::out_dir(), m)?;

    let trace_path = crate::out_dir().join(format!("trace-{name}.json"));
    std::fs::write(&trace_path, chrome_json(rec.spans()))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let selfs: Vec<String> = self_time_by_name(rec.spans())
        .iter()
        .map(|(span, ns)| format!("\"{span}\":{}", *ns as f64 / 1e6))
        .collect();
    let _ = write!(
        detail,
        ",\"trace_file\":\"{}\",\"spans\":{},\"self_ms\":{{{}}}",
        gbtl_util::json::escape(&trace_path.display().to_string()),
        rec.spans().len(),
        selfs.join(",")
    );
    Ok(detail)
}

/// Per-backend op dispatch counts of a traced library run, as JSON.
fn ops_json(w: &LibWorkload) -> String {
    let mut s = String::from("{");
    for (i, (backend, ops)) in w.op_counts().iter().enumerate() {
        let _ = write!(s, "{}\"{backend}\":{{", if i > 0 { "," } else { "" });
        for (j, (op, n)) in ops.iter().enumerate() {
            let _ = write!(s, "{}\"{op}\":{n}", if j > 0 { "," } else { "" });
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// Print `outcome` for people: one line per metric, name, value, unit.
pub fn print_metrics(name: &str, cfg: &RunConfig, outcome: &Outcome) {
    println!(
        "== {name}  seed {}  {} s  {}{}",
        cfg.seed,
        cfg.seconds,
        if cfg.trace {
            "traced (per-layer)"
        } else {
            "end-to-end"
        },
        if cfg.smoke { "  [smoke]" } else { "" }
    );
    for (metric, value) in &outcome.metrics {
        let unit = crate::catalogue::find(metric).map_or("", |d| d.unit);
        println!("{metric:<34} {value:>16.4} {unit}");
    }
    println!(
        "{:<34} {:>16} {}",
        "attempted / failed",
        format!("{} / {}", outcome.attempted, outcome.failed),
        if outcome.correct {
            "correct"
        } else {
            "INCORRECT"
        }
    );
}
