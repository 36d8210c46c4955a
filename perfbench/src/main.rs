//! `ss-perfbench` — the repository's benchmark.
//!
//! ```text
//! ss-perfbench --workload <serve_get|serve_encode|model_batch> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from `--seed`, replays a fixed amount of work sized
//! from `--seconds`, checks every output, and prints one JSON result as
//! the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer ledger with `--trace 1`. See `README.md`.

mod batch;
mod inputs;
mod ledger;
mod rng;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use ss_tensor::Tensor;

use crate::batch::Tally;
use crate::inputs::Named;
use crate::ledger::{Ledger, ServeFigures};
use crate::rng::{Rng, Zipf};
use crate::serve::Fixture;
use crate::stats::{median, OpLog, Report};
use crate::trace::Tracer;

const USAGE: &str =
    "usage: ss-perfbench --workload <serve_get|serve_encode|model_batch> --seed <n> --seconds <s> --trace <0|1>";

/// Timed set-ups of an untraced run, one before each of as many
/// segments of its measurement; `setup_s` is their median. About 3 s of
/// set-up work on the reference host.
const SETUPS: usize = 12;
/// Zipf exponent of `get` popularity.
const ZIPF_S: f64 = 1.1;
/// Fixes which record holds which popularity rank. It is part of the
/// workload, not of the seed, so every seed has the same hot set.
const POPULARITY_SEED: u64 = 0x00C0_FFEE;
/// Inputs whose activations `serve_encode` sends.
const ENCODE_INPUTS: usize = 4;
/// Work per second of `--seconds`, at about the rate a 2-vCPU reference
/// host sustains.
/// Runs are count-bound: the same seed and seconds give the same work on
/// every commit.
const GET_REQUESTS_PER_S: f64 = 280.0;
const ENCODE_REQUESTS_PER_S: f64 = 600.0;
const BATCH_PASSES_PER_S: f64 = 1.0;
/// A `model_batch` pass makes 84 calls; twelve passes give the 1000
/// samples `p99_ms` needs.
const MIN_BATCH_PASSES: usize = 12;
/// Share of a run's requests the traced run replays.
const TRACE_SHARE: f64 = 0.25;
/// The traced run alternates TCP round trips and stage replays in
/// chunks of this many requests, so a slow phase of the host falls on
/// both and the residual between them stays a cost of the socket path.
const TRACE_CHUNK: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    ServeGet,
    ServeEncode,
    ModelBatch,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "serve_get" => Workload::ServeGet,
                    "serve_encode" => Workload::ServeEncode,
                    "model_batch" => Workload::ModelBatch,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Maps an error to a message naming the step that failed.
fn bad<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Scratch space under the working directory, removed when dropped.
struct WorkDir {
    root: PathBuf,
    next: usize,
}

impl WorkDir {
    fn new(workload: Workload) -> Result<Self, String> {
        let root =
            PathBuf::from(".bench_work").join(format!("{workload:?}-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(WorkDir { root, next: 0 })
    }

    /// A new, empty directory.
    fn fresh(&mut self) -> Result<PathBuf, String> {
        self.next += 1;
        let dir = self.root.join(self.next.to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind; fails harmlessly if another run
        // still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Peak resident set size of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs an untraced run's measurement in [`SETUPS`] segments. Before
/// each, it times one more `build` of the run's set-up and tears it down
/// again untimed, so the set-ups sample the same phases of the host as
/// the measurement does, while the measurement keeps using the set-up
/// it started with. Returns the median set-up time in seconds.
fn segmented<T>(
    mut build: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
    mut segment: impl FnMut(usize),
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let spare = build()?;
        times.push(t0.elapsed().as_secs_f64());
        teardown(spare);
        segment(k);
    }
    eprintln!("set-up times (s): {times:.3?}");
    Ok(median(&times))
}

/// The share of `0..n` that segment `k` of [`SETUPS`] covers.
fn part(n: usize, k: usize) -> std::ops::Range<usize> {
    k * n / SETUPS..(k + 1) * n / SETUPS
}

fn count(seconds: f64, per_second: f64) -> usize {
    ((seconds * per_second).round() as usize).max(1)
}

/// `n` `get`s drawn Zipf over the records' fixed popularity order.
fn zipf_sequence(records: usize, n: usize, seed: u64) -> Vec<u32> {
    let mut by_rank: Vec<u32> = (0..records as u32).collect();
    Rng::new(POPULARITY_SEED).shuffle(&mut by_rank);
    let zipf = Zipf::new(records, ZIPF_S);
    let mut rng = Rng::new(inputs::derive(seed, 10));
    (0..n).map(|_| by_rank[zipf.sample(&mut rng)]).collect()
}

/// `n` requests cycling through every item, each cycle in a new seeded order.
fn cycle_sequence(items: usize, n: usize, seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(inputs::derive(seed, 11));
    let mut out = Vec::with_capacity(n + items);
    while out.len() < n {
        let mut cycle: Vec<u32> = (0..items as u32).collect();
        rng.shuffle(&mut cycle);
        out.extend(cycle);
    }
    out.truncate(n);
    out
}

fn end_to_end(r: &mut Report, setup_s: f64, log: &OpLog, bits: u64, values: u64) {
    r.count(log);
    r.add("setup_s", setup_s, "s");
    r.add("p50_ms", log.percentile_ms(0.50).unwrap_or(f64::NAN), "ms");
    r.add("p99_ms", log.percentile_ms(0.99).unwrap_or(f64::NAN), "ms");
    r.add("mvals_per_s", log.mvals_per_s(), "Mvalues/s");
    r.add("bits_per_value", bits as f64 / values.max(1) as f64, "bits");
    r.add("peak_rss_mib", peak_rss_mib(), "MiB");
}

fn serve_workload(args: &Args, work: &mut WorkDir) -> Result<Report, String> {
    let get = args.workload == Workload::ServeGet;
    let requests = count(
        args.seconds,
        if get {
            GET_REQUESTS_PER_S
        } else {
            ENCODE_REQUESTS_PER_S
        },
    );
    // A set-up generates the inputs from the seed and builds the store
    // and the service.
    let build = |work: &mut WorkDir| -> Result<(Fixture, Vec<Named>), String> {
        let tensors = if get {
            inputs::resnet_weights(args.seed)
        } else {
            inputs::resnet_activations(args.seed, ENCODE_INPUTS)
        };
        let dir = work.fresh()?;
        let fixture = if get {
            Fixture::get(dir, &tensors)?
        } else {
            Fixture::encode(dir, &tensors)?
        };
        Ok((fixture, tensors))
    };
    let (mut fixture, tensors) = build(work)?;
    let sequence = if get {
        zipf_sequence(tensors.len(), requests, args.seed)
    } else {
        cycle_sequence(tensors.len(), requests, args.seed)
    };
    let mut report = Report {
        inputs_digest: inputs::digest(tensors.iter().map(|(_, t)| t), &sequence),
        ..Report::default()
    };

    // Warm-up: every item once, untimed; it must all succeed.
    let mut warm = OpLog::default();
    let all: Vec<u32> = (0..fixture.items.len() as u32).collect();
    fixture.run_tcp(&all, &mut warm);
    report.checks_passed = warm.failed() == 0;

    if args.trace {
        let n = count(requests as f64, TRACE_SHARE)
            .max(64)
            .min(sequence.len());
        let seq = &sequence[..n];
        let mut figures = ServeFigures::default();
        let mut tr = Tracer::new(true);
        let overhead = serve_trace(&mut fixture, seq, &mut tr, &mut figures, &mut report)?;
        let acts: Vec<Tensor> = tensors.iter().map(|(_, t)| t.clone()).collect();
        let result = ledger_run(work, &tensors, &acts, figures, tr, overhead, &mut report);
        fixture.shutdown();
        result?;
        ledger::negative_residual(&report);
    } else {
        // Container bits stored (get) or shipped (encode) per request.
        let (bits, values) = sequence.iter().fold((0, 0), |(b, v), &i| {
            let item = &fixture.items[i as usize];
            (b + 8 * item.container_bytes, v + item.values)
        });
        let mut log = OpLog::default();
        drop(tensors);
        let setup_s = segmented(
            || build(work),
            |(f, _)| f.shutdown(),
            |k| fixture.run_tcp(&sequence[part(sequence.len(), k)], &mut log),
        )?;
        fixture.shutdown();
        eprintln!(
            "{} requests, {} failed, {:.3} Mvalues/s",
            log.attempted(),
            log.failed(),
            log.mvals_per_s()
        );
        end_to_end(&mut report, setup_s, &log, bits, values);
    }
    Ok(report)
}

fn model_batch(args: &Args, work: &mut WorkDir) -> Result<Report, String> {
    let passes = count(args.seconds, BATCH_PASSES_PER_S).max(MIN_BATCH_PASSES);
    let build = |work: &mut WorkDir| -> Result<Batch, String> {
        let weights = inputs::alexnet_weights(args.seed);
        let acts = inputs::mobilenet_activations(args.seed)
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        Ok(Batch {
            weights,
            acts,
            pipeline: batch::pipeline()?,
            dir: work.fresh()?,
        })
    };
    let b = build(work)?;
    let mut report = Report {
        inputs_digest: inputs::digest(b.weights.iter().map(|(_, t)| t).chain(&b.acts), &[]),
        ..Report::default()
    };
    // Warm-up pass, untimed; it must all succeed.
    let mut warm = Tally::default();
    b.pass(&mut Tracer::new(false), &mut warm);
    report.checks_passed = [&warm.pack, &warm.load, &warm.codec]
        .iter()
        .all(|l| l.failed() == 0);

    if args.trace {
        let mut off = Tally::default();
        let t0 = Instant::now();
        b.pass(&mut Tracer::new(false), &mut off);
        let t_off = t0.elapsed().as_secs_f64();
        for log in [&off.pack, &off.load, &off.codec] {
            report.count(log);
        }
        let mut tr = Tracer::new(true);
        let mut tally = Tally::default();
        let t0 = Instant::now();
        b.pass(&mut tr, &mut tally);
        let t_on = t0.elapsed().as_secs_f64();
        // The serve layers over this workload's weights: uniform `get`s.
        let mut figures = ServeFigures::default();
        let mut fixture = Fixture::get(work.fresh()?, &b.weights)?;
        let seq = cycle_sequence(b.weights.len(), 4 * b.weights.len(), args.seed);
        let replayed = serve_trace(&mut fixture, &seq, &mut tr, &mut figures, &mut report);
        fixture.shutdown();
        replayed?;
        let mut all = b.weights.clone();
        all.extend(b.acts.iter().map(|t| (String::new(), t.clone())));
        ledger_finish(
            &all,
            &b.acts,
            &b.pipeline,
            figures,
            tr,
            tally,
            t_on / t_off - 1.0,
            &mut report,
        )?;
    } else {
        let mut tally = Tally::default();
        let mut off = Tracer::new(false);
        let setup_s = segmented(
            || build(work),
            Batch::remove,
            |k| {
                for _ in part(passes, k) {
                    b.pass(&mut off, &mut tally);
                }
            },
        )?;
        b.remove();
        let mut all = OpLog::default();
        for log in [&tally.pack, &tally.load, &tally.codec] {
            all.absorb(log);
        }
        end_to_end(
            &mut report,
            setup_s,
            &all,
            tally.stored_bits,
            tally.stored_values,
        );
    }
    Ok(report)
}

/// A `model_batch` set-up: its inputs, the pipeline and a directory for
/// the stores.
struct Batch {
    weights: Vec<Named>,
    acts: Vec<Tensor>,
    pipeline: ss_pipeline::Pipeline,
    dir: PathBuf,
}

impl Batch {
    fn pass(&self, tr: &mut Tracer, tally: &mut Tally) {
        batch::pass(
            &self.dir,
            &self.weights,
            &self.acts,
            &self.pipeline,
            tr,
            tally,
        );
    }

    /// Drops the set-up and deletes its stores.
    fn remove(self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The traced run's serve passes over `seq`: TCP round trips, the stage
/// replay untraced and traced, alternating chunk by chunk, then the
/// in-process handle. Returns the trace overhead of the replay.
fn serve_trace(
    fixture: &mut Fixture,
    seq: &[u32],
    tr: &mut Tracer,
    figures: &mut ServeFigures,
    report: &mut Report,
) -> Result<f64, String> {
    let mut off = Tracer::new(false);
    let mut off_log = OpLog::default();
    let (mut t_off, mut t_on) = (0.0, 0.0);
    for chunk in seq.chunks(TRACE_CHUNK) {
        fixture.run_tcp(chunk, &mut figures.tcp);
        let t0 = Instant::now();
        fixture.replay_stages(chunk, &mut off, &mut off_log)?;
        t_off += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        fixture.replay_stages(chunk, tr, &mut figures.replay)?;
        t_on += t0.elapsed().as_secs_f64();
    }
    report.count(&off_log);
    fixture.run_handle(seq, tr, &mut figures.handle);
    Ok(t_on / t_off - 1.0)
}

/// The trace run's tail for a serve workload: an offline pass over the
/// workload's tensors, then the ledger.
#[allow(clippy::too_many_arguments)]
fn ledger_run(
    work: &mut WorkDir,
    tensors: &[Named],
    acts: &[Tensor],
    figures: ServeFigures,
    mut tr: Tracer,
    overhead: f64,
    report: &mut Report,
) -> Result<(), String> {
    let pipeline = batch::pipeline()?;
    let mut tally = Tally::default();
    batch::pass(
        &work.fresh()?,
        tensors,
        acts,
        &pipeline,
        &mut tr,
        &mut tally,
    );
    ledger_finish(
        tensors, acts, &pipeline, figures, tr, tally, overhead, report,
    )
}

/// Runs the layer probes and adds every per-layer metric to `report`.
#[allow(clippy::too_many_arguments)]
fn ledger_finish(
    tensors: &[Named],
    acts: &[Tensor],
    pipeline: &ss_pipeline::Pipeline,
    figures: ServeFigures,
    mut tr: Tracer,
    tally: Tally,
    overhead: f64,
    report: &mut Report,
) -> Result<(), String> {
    let probe = ledger::probe(tensors, acts, pipeline, &mut tr);
    for log in [
        &tally.pack,
        &tally.load,
        &tally.codec,
        &figures.tcp,
        &figures.handle,
        &figures.replay,
    ] {
        report.count(log);
    }
    let probe = match probe {
        Ok(p) => p,
        Err(e) => {
            eprintln!("layer probe failed: {e}");
            report.checks_passed = false;
            ledger::Probe::default()
        }
    };
    Ledger {
        totals: tr.totals(),
        tracer: &tr,
        probe: &probe,
        tally: &tally,
        serve: &figures,
        trace_overhead_frac: overhead,
    }
    .metrics(report);
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = WorkDir::new(args.workload).and_then(|mut work| match args.workload {
        Workload::ServeGet | Workload::ServeEncode => serve_workload(&args, &mut work),
        Workload::ModelBatch => model_batch(&args, &mut work),
    });
    match result {
        Ok(report) => {
            for line in report.lines() {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": "..."` values in `text`, in order.
    fn names(text: &str) -> Vec<String> {
        text.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let e2e_at = json.find("\"end_to_end\"").expect("end_to_end");
        let layer_at = json.find("\"per_layer\"").expect("per_layer");
        assert!(e2e_at < layer_at);
        let listed_e2e = names(&json[e2e_at..layer_at]);
        let listed_layer = names(&json[layer_at..]);

        let mut e2e = Report::default();
        end_to_end(&mut e2e, 1.0, &OpLog::default(), 1, 1);
        let emitted: Vec<String> = e2e.metrics.iter().map(|m| m.0.clone()).collect();
        assert_eq!(emitted, listed_e2e);

        let mut layer = Report::default();
        let tr = Tracer::new(false);
        Ledger {
            totals: tr.totals(),
            tracer: &tr,
            probe: &ledger::Probe::default(),
            tally: &Tally::default(),
            serve: &ServeFigures::default(),
            trace_overhead_frac: 0.0,
        }
        .metrics(&mut layer);
        let emitted: Vec<String> = layer.metrics.iter().map(|m| m.0.clone()).collect();
        assert_eq!(emitted, listed_layer);
        for name in listed_e2e.iter().chain(&listed_layer) {
            assert!(stats::valid_name(name), "{name}");
        }
    }

    #[test]
    fn sequences_are_seeded_and_fixed_in_shape() {
        assert_eq!(zipf_sequence(54, 500, 1), zipf_sequence(54, 500, 1));
        assert_ne!(zipf_sequence(54, 500, 1), zipf_sequence(54, 500, 2));
        // The hot record is the same for every seed.
        let top = |seed| {
            let mut counts = [0usize; 54];
            for i in zipf_sequence(54, 5000, seed) {
                counts[i as usize] += 1;
            }
            (0..54).max_by_key(|&i| counts[i]).expect("non-empty")
        };
        assert_eq!(top(1), top(2));
        // Every cycle of an encode sequence covers every item once.
        let seq = cycle_sequence(10, 30, 3);
        for cycle in seq.chunks(10) {
            let mut c = cycle.to_vec();
            c.sort_unstable();
            assert_eq!(c, (0..10).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload serve_get --seed 7 --seconds 20 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeGet, 7, 20.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload serve_get --seconds 1",
            "--workload serve_get --seed x --seconds 1",
            "--workload serve_get --seed 1 --seconds 0",
            "--workload serve_get --seed 1 --seconds 1 --trace 2",
            "--workload serve_get --seed 1 --seconds",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
