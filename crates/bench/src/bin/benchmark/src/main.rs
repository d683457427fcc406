//! The repository benchmark: the SACCS serving stack driven from
//! outside, through public functions only, on three workloads.
//!
//! ```text
//! benchmark --workload <chat|catalog_read|catalog_mixed|all> --seed <n>
//!           [--seconds <s>] [--trace 0|1] [--out DIR]
//! benchmark --check FILE
//! benchmark --compare A B
//! ```
//!
//! A run sets its stack up, checks that the server's rankings equal
//! serial `rank_request` bit for bit, then measures for `--seconds`:
//! untraced (`--trace 0`) a closed loop for capacity and an open loop
//! for latency; traced (`--trace 1`) the per-layer phase of
//! [`layers`]. It prints a context line, one JSON line per metric and,
//! last, a summary line with the metrics `BENCHMARK.json` declares for
//! the mode. Run it from the repository root; README.md has the rest.

mod json;
mod layers;
mod load;
mod report;
mod spec;
mod stats;
mod trace;
mod verdict;
mod workload;

use report::{Kind, Metric};
use spec::Spec;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use workload::{part, purpose, stream, OpStream, Requests, Stack, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Measurement rounds per set-up, each a closed then an open loop for a
/// share of `--seconds`.
const ROUNDS_PER_SETUP: usize = 2;
const ROUNDS: usize = SETUPS * ROUNDS_PER_SETUP;
/// Share of each round's seconds spent in the closed loop; the open loop
/// takes the rest.
const CAPACITY_SHARE: f64 = 0.4;
/// Rounds whose capacity came within this share of the best round's
/// count as clean; latency is taken over their samples.
const CLEAN_SHARE: f64 = 0.9;
/// Requests in the correctness gate.
const GATE_REQUESTS: usize = 64;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

fn usage() -> String {
    "usage: benchmark --workload <chat|catalog_read|catalog_mixed|all> --seed <n> \
     [--seconds <s>] [--trace 0|1] [--out DIR]\n       benchmark --check FILE\n       \
     benchmark --compare A B"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut out = PathBuf::from("bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads = Some(if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?]
                });
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number of seconds in (0, 600]")?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        out,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--check") if args.len() == 2 => check(Path::new(&args[1])),
        Some("--compare") if args.len() == 3 => compare(Path::new(&args[1]), Path::new(&args[2])),
        _ => parse_args(&args)
            .map_err(|e| format!("{e}\n{}", usage()))
            .and_then(|a| run(&a, process_start)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load_spec() -> Result<Spec, String> {
    Spec::load(Path::new("BENCHMARK.json"))
        .map_err(|e| format!("{e} (run from the repository root)"))
}

fn run(args: &Args, process_start: Instant) -> Result<(), String> {
    let spec = load_spec()?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    for (i, &w) in args.workloads.iter().enumerate() {
        // The first set-up of the process counts from process start.
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        run_workload(w, args, &spec, start)?;
    }
    Ok(())
}

fn run_workload(w: Workload, args: &Args, spec: &Spec, start: Instant) -> Result<(), String> {
    let mut context: Vec<(&str, String)> = vec![
        (
            "host_cores",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("commit", json::quote(&commit())),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.traced).to_string()),
        ("seconds", json::number(args.seconds)),
        ("offered_rank_rps", json::number(w.rank_rate())),
        ("offered_ingest_rps", json::number(w.ingest_rate())),
        ("senders", load::SENDERS.to_string()),
        ("serve_workers", workload::WORKERS.to_string()),
    ];
    let mut metrics = Vec::new();
    let mut setup_s = Vec::new();
    let mut digest = 0;
    let (mut attempted, mut failed) = (0, 0);
    let setups = if args.traced { 1 } else { SETUPS };
    let mut measured = Vec::with_capacity(ROUNDS);
    for k in 0..setups {
        // Each stack is dropped, its server stopped, before the next is
        // built.
        let t0 = if k == 0 { start } else { Instant::now() };
        let stack = workload::setup(w, &args.out)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if k == 0 {
            // The set-up's own peak: what holding this workload's data
            // costs, before serving threads add allocator arenas.
            metrics.push(Metric::new(
                "setup_rss_mb",
                peak_rss_mb()?,
                "MB",
                Kind::E2e,
                1,
            ));
            digest = gate(&stack, args.seed)?;
        }
        if args.traced {
            let traced = layers::traced_phase(&stack, args.seed, args.seconds);
            let path = args.out.join(format!("{}.trace.jsonl", w.name()));
            traced
                .tracer
                .write_jsonl(&path)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            context.extend(traced.context.iter().map(|&(k, v)| (k, json::number(v))));
            context.push(("trace_file", json::quote(&path.display().to_string())));
            println!("breakdown ({}):", w.name());
            for row in &traced.breakdown {
                println!("  {row}");
            }
            metrics.extend(traced.metrics);
            attempted += traced.attempted;
            failed += traced.failed;
        } else {
            for r in 0..ROUNDS_PER_SETUP {
                measured.push(measure_round(
                    &stack,
                    args,
                    (k * ROUNDS_PER_SETUP + r) as u64,
                ));
            }
        }
    }
    if !args.traced {
        let (a, f) = untraced_metrics(w, args, &measured, &mut metrics, &mut context);
        attempted += a;
        failed += f;
    }
    // The peak through serving as well. Serving threads' allocator arenas
    // make it vary run to run by more than a bound could absorb, so it is
    // reported, not gated.
    let peak = peak_rss_mb()?;
    metrics.push(if args.traced {
        Metric::new("diag.peak_rss_mb", peak, "MB", Kind::Layer, 1)
    } else {
        Metric::new("peak_rss_mb", peak, "MB", Kind::E2e, 1)
    });
    context.push(("setups", setup_s.len().to_string()));
    metrics.push(Metric::new(
        "setup_s",
        stats::median(&setup_s).unwrap_or(0.0),
        "s",
        Kind::E2e,
        setup_s.len(),
    ));

    let fields: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!(
        "{{\"workload\":{},\"context\":{{{}}}}}",
        json::quote(w.name()),
        fields.join(",")
    );
    println!(
        "{{\"workload\":{},\"metric\":\"check.rankings_digest\",\"value\":\"{digest:016x}\",\"unit\":\"fnv64\",\"kind\":\"check\",\"n\":{GATE_REQUESTS}}}",
        json::quote(w.name())
    );
    for m in &metrics {
        println!("{}", m.line(w.name()));
    }
    let declared: Vec<(&str, &str)> = spec
        .for_mode(args.traced)
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    println!(
        "{}",
        report::summary(failed == 0, attempted, failed, &metrics, &declared)?
    );
    Ok(())
}

/// One round of the untraced run: a closed loop for capacity, then an
/// open loop for latency.
struct Round {
    closed: load::ClosedLoop,
    open: load::OpenLoop,
}

fn measure_round(stack: &Stack, args: &Args, round: u64) -> Round {
    let w = stack.workload;
    let universe = stack.entities.len();
    let share = args.seconds / ROUNDS as f64;
    let capacity = Duration::from_secs_f64(share * CAPACITY_SHARE);
    let streams = (0..load::SENDERS as u64)
        .map(|k| OpStream::new(stack, args.seed, part::round(round, part::CAPACITY + k)))
        .collect();
    let closed = load::closed_loop(&stack.server, streams, capacity, universe);
    let n = (w.total_rate() * share * (1.0 - CAPACITY_SHARE)).round() as usize;
    let ops = OpStream::new(stack, args.seed, part::round(round, part::LATENCY)).take(n);
    Round {
        closed,
        open: load::open_loop(&stack.server, ops, w.total_rate(), universe),
    }
}

/// End-to-end metrics from the rounds. Interference from outside the
/// process comes in episodes seconds long that slow one or both cores by
/// up to half and never speed anything up. The rounds are spread across
/// the run, between its set-ups, so that some of them miss any one
/// episode; capacity is the best round's, and latency is taken over the
/// clean rounds, those within `CLEAN_SHARE` of the best capacity.
fn untraced_metrics(
    w: Workload,
    args: &Args,
    rounds: &[Round],
    metrics: &mut Vec<Metric>,
    context: &mut Vec<(&str, String)>,
) -> (u64, u64) {
    let round_capacity: Vec<f64> = rounds.iter().map(|r| r.closed.rate()).collect();
    let best_capacity = round_capacity.iter().copied().fold(0.0, f64::max);
    let clean: Vec<&Round> = rounds
        .iter()
        .filter(|r| r.closed.rate() >= CLEAN_SHARE * best_capacity)
        .collect();
    let ms = |s: &load::Sample| s.latency_ns() as f64 / 1e6;
    let latencies = |rounds: &[&Round], ingest: bool| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|r| &r.open.samples)
            .filter(|s| s.ingest == ingest)
            .map(ms)
            .collect()
    };
    let all: Vec<&Round> = rounds.iter().collect();
    let (clean_ranks, ranks, ingests) = (
        latencies(&clean, false),
        latencies(&all, false),
        latencies(&all, true),
    );
    let q = |xs: &[f64], p: f64| stats::quantile(xs, p).unwrap_or(0.0);
    let completed: u64 = rounds.iter().map(|r| r.closed.completed).sum();
    metrics.push(Metric::new(
        "capacity_rps",
        best_capacity,
        "ops/s",
        Kind::E2e,
        completed as usize,
    ));
    metrics.push(Metric::new(
        "rank_p50_ms",
        q(&clean_ranks, 0.5),
        "ms",
        Kind::E2e,
        clean_ranks.len(),
    ));
    // Tails pool every round: too noisy run to run to gate.
    metrics.push(Metric::new(
        "rank_p99_ms",
        q(&ranks, 0.99),
        "ms",
        Kind::E2e,
        ranks.len(),
    ));
    if !ingests.is_empty() {
        metrics.push(Metric::new(
            "ingest_p50_ms",
            q(&ingests, 0.5),
            "ms",
            Kind::E2e,
            ingests.len(),
        ));
        metrics.push(Metric::new(
            "ingest_p90_ms",
            q(&ingests, 0.9),
            "ms",
            Kind::E2e,
            ingests.len(),
        ));
    }
    let samples: Vec<&load::Sample> = rounds.iter().flat_map(|r| &r.open.samples).collect();
    let late: Vec<f64> = samples.iter().map(|s| s.late_ns() as f64 / 1e6).collect();
    metrics.push(Metric::new(
        "loadgen.late_p99_ms",
        q(&late, 0.99),
        "ms",
        Kind::Layer,
        late.len(),
    ));
    let open_wall: f64 = rounds.iter().map(|r| r.open.wall_s).sum();
    metrics.push(Metric::new(
        "loadgen.achieved_rps",
        samples.len() as f64 / open_wall,
        "ops/s",
        Kind::Layer,
        samples.len(),
    ));
    let round_p50: Vec<f64> = rounds
        .iter()
        .map(|r| q(&latencies(&[r], false), 0.5))
        .collect();
    let list = |xs: &[f64]| {
        let items: Vec<String> = xs.iter().map(|&x| json::number(x)).collect();
        format!("[{}]", items.join(","))
    };
    let share = args.seconds / ROUNDS as f64;
    context.extend([
        ("rounds", ROUNDS.to_string()),
        ("clean_rounds", clean.len().to_string()),
        ("round_capacity_rps", list(&round_capacity)),
        ("round_rank_p50_ms", list(&round_p50)),
        ("capacity_s_per_round", json::number(share * CAPACITY_SHARE)),
        (
            "latency_s_per_round",
            json::number(share * (1.0 - CAPACITY_SHARE)),
        ),
        ("capacity_clients", load::SENDERS.to_string()),
        ("capacity_ops", completed.to_string()),
        ("open_rank_samples", ranks.len().to_string()),
        ("open_ingest_samples", ingests.len().to_string()),
        ("offered_total_rps", json::number(w.total_rate())),
    ]);
    let capacity_failed: u64 = rounds.iter().map(|r| r.closed.failed).sum();
    let open_failed = samples.iter().filter(|s| !s.ok).count() as u64;
    (
        completed + capacity_failed + samples.len() as u64,
        capacity_failed + open_failed,
    )
}

/// A ranking as entity ids and score bits.
type Ranking = Vec<(usize, u32)>;

/// Serve seeded requests through the two-worker server and require the
/// same score bits as serial `rank_request`. Returns an FNV digest of
/// the rankings, so outputs can be compared across commits.
fn gate(stack: &Stack, seed: u64) -> Result<u64, String> {
    let mut source = Requests::new(&stack.vocabulary, stream(seed, purpose::GATE));
    let requests: Vec<_> = (0..GATE_REQUESTS).map(|_| source.rank()).collect();
    let bits = |results: &[(usize, f32)]| -> Ranking {
        results.iter().map(|&(e, s)| (e, s.to_bits())).collect()
    };
    let api = stack.api();
    let serial: Vec<_> = requests
        .iter()
        .map(|r| bits(&stack.service.rank_request(r, &api).results))
        .collect();
    let requests = Arc::new(requests);
    let (tx, rx) = mpsc::channel();
    let handles: Vec<_> = (0..load::SENDERS)
        .map(|k| {
            let (server, requests, tx) =
                (Arc::clone(&stack.server), Arc::clone(&requests), tx.clone());
            saccs_rt::spawn_worker(&format!("bench-gate-{k}"), move || {
                for i in load::owned_by(k, requests.len()) {
                    let served = server.submit(requests[i].clone()).map(|r| bits(&r.results));
                    let _ = tx.send((i, served));
                }
            })
        })
        .collect();
    drop(tx);
    for handle in handles {
        handle.join().map_err(|_| "a gate client panicked")?;
    }
    let mut served: Vec<(usize, Result<Ranking, _>)> = rx.into_iter().collect();
    served.sort_by_key(|(i, _)| *i);
    if served.len() != serial.len() {
        return Err(format!(
            "gate: {} of {} requests served",
            served.len(),
            serial.len()
        ));
    }
    for ((i, got), want) in served.iter().zip(&serial) {
        match got {
            Ok(got) if got == want => {}
            Ok(got) => {
                return Err(format!(
                    "gate: request {i} diverged from serial rank_request\n  served {got:?}\n  serial {want:?}"
                ))
            }
            Err(e) => return Err(format!("gate: request {i} failed: {e}")),
        }
    }
    let mut h = stats::Fnv::new();
    for ranking in &serial {
        h.write(&(ranking.len() as u64).to_le_bytes());
        for &(e, b) in ranking {
            h.write(&(e as u64).to_le_bytes());
            h.write(&b.to_le_bytes());
        }
    }
    Ok(h.finish())
}

/// The checked-out commit, read from `.git` in the working directory
/// (the benchmark reads nothing outside its checkout); `unknown` when
/// the checkout is not a git repository.
fn commit() -> String {
    let git = Path::new(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(git.join(reference)) {
        return hash.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn check(path: &Path) -> Result<(), String> {
    let spec = load_spec()?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    match verdict::check(&text, &spec) {
        Ok(runs) => {
            println!("ok: {runs} runs report every declared metric");
            Ok(())
        }
        Err(problems) => {
            for p in &problems {
                println!("{p}");
            }
            Err(format!("{} problems in {}", problems.len(), path.display()))
        }
    }
}

fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let spec = load_spec()?;
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let comparisons = verdict::compare(&read(a)?, &read(b)?, &spec)?;
    println!(
        "{:<14} {:<14} {:>12} {:>8} {:>12} {:>8} {:>6} {:>7}  verdict",
        "workload", "metric", "median A", "spread", "median B", "spread", "bound", "B wins"
    );
    let pct = |x: Option<f64>| x.map_or("-".to_string(), |v| format!("{:.1}%", 100.0 * v));
    for c in &comparisons {
        println!(
            "{:<14} {:<14} {:>12.4} {:>8} {:>12.4} {:>8} {:>6} {:>3}/{:<3}  {}",
            c.workload,
            c.metric,
            stats::median(&c.a).unwrap_or(f64::NAN),
            pct(stats::spread(&c.a)),
            stats::median(&c.b).unwrap_or(f64::NAN),
            pct(stats::spread(&c.b)),
            pct(Some(c.bound)),
            c.b_wins,
            c.pairs,
            c.verdict
        );
    }
    for c in &comparisons {
        println!("{}", c.line());
    }
    let bad: Vec<String> = comparisons
        .iter()
        .filter(|c| matches!(c.verdict, "regressed" | "unresolved"))
        .map(|c| format!("{}/{}", c.workload, c.metric))
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("regressed or unresolved: {}", bad.join(", ")))
    }
}
