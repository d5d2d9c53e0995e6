//! Socket load generator CLI.
//!
//! Two modes:
//!
//! * **Self-hosted** (default): boots an in-process [`Server`] on a
//!   loopback port, drives it, audits the responses, and prints a JSON
//!   report. `--smoke` runs the CI gate: a steady phase that must be
//!   audit-clean with a warm cache, an overload phase that must produce
//!   *typed* rejections (never silence), a pool-sweep phase that
//!   must pay exactly one cold HeRAD solve across every pool shape of a
//!   chain (the solve-once chain tier), a warm-restart phase that
//!   must serve the same sweep entirely from a snapshot loaded at boot,
//!   a sustained throughput phase that must clear the 140k req/s floor,
//!   and a scaling sweep (1/8/64/256 connections at one offered load)
//!   whose p99 at 256 connections must stay within 5x of p99 at 8.
//! * **External** (`--addr HOST:PORT`): drives an already-running
//!   server; the audit still applies, the cache/overload assertions
//!   don't (the server's config is unknown).
//! * **Scaling** (`--scaling`, self-hosted or external): just the
//!   latency-vs-connections sweep, gated, curve printed (and written to
//!   `--scaling-out`). `--duration`/`--rate`/`--warmup` tune the
//!   sustained open-loop phases; `--duration` without `--scaling` runs
//!   one sustained point instead of the fixed-count workload.
//!
//! Exit status is 0 only when every audit and smoke assertion holds.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use amp_core::json::Json;
use amp_net::{loadgen, proto, LoadConfig, Server, ServerConfig};
use amp_service::{Objective, Policy, ScheduleRequest, TaskSpec};

struct Args {
    addr: Option<SocketAddr>,
    connections: usize,
    requests: usize,
    distinct: usize,
    seed: u64,
    shards: usize,
    smoke: bool,
    scaling: bool,
    duration_ms: Option<u64>,
    rate: Option<u64>,
    warmup_ms: Option<u64>,
    out: Option<String>,
    scaling_out: Option<String>,
    snapshot_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: net_loadgen [--smoke] [--scaling] [--addr HOST:PORT] \
         [--connections N] [--requests N] [--distinct N] [--duration MS] \
         [--rate RPS] [--warmup MS] [--seed N] [--shards N] [--out FILE] \
         [--scaling-out FILE] [--snapshot-out FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        connections: 4,
        requests: 256,
        distinct: 8,
        seed: 0xA11CE,
        shards: 4,
        smoke: false,
        scaling: false,
        duration_ms: None,
        rate: None,
        warmup_ms: None,
        out: None,
        scaling_out: None,
        snapshot_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| usage_for(name));
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--scaling" => args.scaling = true,
            "--addr" => args.addr = Some(value("--addr").parse().unwrap_or_else(|_| usage())),
            "--connections" => {
                args.connections = value("--connections").parse().unwrap_or_else(|_| usage());
            }
            "--requests" => args.requests = value("--requests").parse().unwrap_or_else(|_| usage()),
            "--distinct" => args.distinct = value("--distinct").parse().unwrap_or_else(|_| usage()),
            "--duration" => {
                args.duration_ms = Some(value("--duration").parse().unwrap_or_else(|_| usage()));
            }
            "--rate" => args.rate = Some(value("--rate").parse().unwrap_or_else(|_| usage())),
            "--warmup" => {
                args.warmup_ms = Some(value("--warmup").parse().unwrap_or_else(|_| usage()));
            }
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--shards" => args.shards = value("--shards").parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = Some(value("--out")),
            "--scaling-out" => args.scaling_out = Some(value("--scaling-out")),
            "--snapshot-out" => args.snapshot_out = Some(value("--snapshot-out")),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn usage_for(name: &str) -> ! {
    eprintln!("missing value for {name}");
    usage();
}

fn load_config(addr: SocketAddr, args: &Args) -> LoadConfig {
    LoadConfig {
        addr,
        connections: args.connections,
        requests_per_connection: args.requests,
        distinct_instances: args.distinct,
        seed: args.seed,
        duration: args.duration_ms.map(Duration::from_millis),
        target_rps: args.rate,
        warmup: Duration::from_millis(args.warmup_ms.unwrap_or(250)),
        ..LoadConfig::default()
    }
}

/// The connection counts every scaling sweep visits: the same offered
/// load pushed through 1, 8, 64 and 256 connections.
const SCALING_SWEEP: [usize; 4] = [1, 8, 64, 256];

/// Throughput floor for the smoke gate, answered responses per second.
/// Twice the pre-overhaul per-line-syscall wire's checked-in number.
const THROUGHPUT_FLOOR_RPS: u64 = 140_000;

/// The scaling gate: p99 at 256 connections may cost at most this
/// multiple of p99 at 8 connections for the same offered load.
const SCALING_P99_RATIO: u64 = 5;

/// Quantization floor for the ratio gate's denominator: below one
/// millisecond, p99 at 8 connections is dominated by OS scheduler noise
/// and a ratio against it measures the host, not the server.
const SCALING_P99_FLOOR_US: u64 = 1000;

/// A server sized for the scaling sweep's widest point (256 client
/// connections plus audit headroom).
fn wide_server(args: &Args) -> Result<Server, std::io::Error> {
    Server::start(ServerConfig {
        shards: args.shards.max(1),
        max_connections: 512,
        quota: None,
        ..ServerConfig::default()
    })
}

/// How many times the sweep may re-run before a tail-gate miss counts.
/// A one-core CI box occasionally eats a multi-millisecond host stall
/// mid-run that lands squarely in one point's p99; a genuine fan-out
/// regression (the per-connection collapse this gate exists for) fails
/// every attempt, a stolen timeslice doesn't.
const SCALING_ATTEMPTS: u64 = 3;

/// The sustained open-loop config the smoke scaling sweep runs:
/// `--duration`/`--rate`/`--warmup` override the defaults.
fn scaling_config(addr: SocketAddr, args: &Args) -> LoadConfig {
    LoadConfig {
        addr,
        distinct_instances: args.distinct,
        seed: args.seed ^ 0x5CA1E,
        duration: Some(Duration::from_millis(args.duration_ms.unwrap_or(2400))),
        target_rps: Some(args.rate.unwrap_or(4_000)),
        warmup: Duration::from_millis(args.warmup_ms.unwrap_or(600)),
        read_timeout: Duration::from_secs(30),
        ..LoadConfig::default()
    }
}

/// Every gate a finished sweep must clear, as failure labels (empty =
/// pass). Also prints the per-point summary.
fn scaling_gate(scaling: &amp_net::ScalingReport) -> Vec<String> {
    let mut gate = Vec::new();
    check(
        &mut gate,
        scaling.all_clean(),
        "scaling: every point audit-clean with every sent frame answered",
    );
    for point in &scaling.points {
        check(
            &mut gate,
            point.report.answered > 0,
            "scaling: every point answered at least one frame",
        );
        eprintln!(
            "scaling@{}: {} sent, {} rps, p50 {}us, p99 {}us",
            point.connections,
            point.report.sent,
            point.report.throughput_rps,
            point.report.p50_us,
            point.report.p99_us
        );
    }
    let p99_narrow = scaling.point(8).map_or(0, |p| p.report.p99_us);
    let p99_wide = scaling.point(256).map_or(u64::MAX, |p| p.report.p99_us);
    check(
        &mut gate,
        p99_wide <= SCALING_P99_RATIO * p99_narrow.max(SCALING_P99_FLOOR_US),
        "scaling: p99 at 256 connections within 5x of p99 at 8 connections",
    );
    gate
}

/// Runs the gated sweep, retrying host-noise outliers; the attempt that
/// passes (or the last one) is returned and its gate verdict appended
/// to `failures`.
fn run_gated_scaling(
    cfg: &LoadConfig,
    failures: &mut Vec<String>,
) -> std::io::Result<amp_net::ScalingReport> {
    let mut last: Option<(amp_net::ScalingReport, Vec<String>)> = None;
    for attempt in 0..SCALING_ATTEMPTS {
        let attempt_cfg = LoadConfig {
            seed: cfg.seed ^ (attempt << 48),
            ..cfg.clone()
        };
        let scaling = loadgen::run_scaling(&attempt_cfg, &SCALING_SWEEP)?;
        let gate = scaling_gate(&scaling);
        if gate.is_empty() {
            return Ok(scaling);
        }
        if attempt + 1 < SCALING_ATTEMPTS {
            eprintln!(
                "scaling: gate missed on attempt {} of {SCALING_ATTEMPTS} \
                 ({}); re-running the sweep",
                attempt + 1,
                gate.join("; ")
            );
        }
        last = Some((scaling, gate));
    }
    let (scaling, gate) = last.expect("at least one attempt ran");
    failures.extend(gate);
    Ok(scaling)
}

/// One named assertion; failures accumulate instead of aborting so a
/// smoke run reports everything that broke.
fn check(failures: &mut Vec<String>, ok: bool, what: &str) {
    if !ok {
        failures.push(what.to_string());
    }
}

/// The one fixed chain the pool-sweep phase revisits under every pool
/// shape; a mix of sequential and replicable stages so the HeRAD table
/// is non-trivial.
fn sweep_chain() -> Vec<TaskSpec> {
    [
        (10, 25, false),
        (40, 90, true),
        (8, 8, true),
        (5, 12, false),
    ]
    .into_iter()
    .map(|(weight_big, weight_little, replicable)| TaskSpec {
        weight_big,
        weight_little,
        replicable,
    })
    .collect()
}

/// Every pool shape the sweep visits: 12 distinct `(big, little)`
/// pairs, all of one chain, in growing order so the tier's grow path is
/// exercised as well as pure extraction.
fn sweep_pools() -> Vec<(u64, u64)> {
    (1..=3u64)
        .flat_map(|big| (0..=3u64).map(move |little| (big, little)))
        .collect()
}

/// Pipelines one HeRAD schedule frame per pool shape over a single
/// connection and returns how many came back as success frames.
fn drive_sweep(addr: SocketAddr) -> std::io::Result<u64> {
    let pools = sweep_pools();
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut write_half = stream.try_clone()?;
    for (seq, &(big_cores, little_cores)) in pools.iter().enumerate() {
        let request = ScheduleRequest {
            id: seq as u64,
            tasks: sweep_chain(),
            big_cores,
            little_cores,
            policy: Policy::Strategy("HeRAD".to_string()),
            objective: Objective::Period,
            deadline_us: None,
        };
        let frame = format!("{}\n", proto::render_request(&request, "public"));
        write_half.write_all(frame.as_bytes())?;
    }
    let mut ok = 0;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for _ in 0..pools.len() {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        if let Ok(response) = proto::parse_response(line.trim_end()) {
            if response.result.is_ok() {
                ok += 1;
            }
        }
    }
    Ok(ok)
}

/// Pulls one counter out of the `fleet.chain_cache` block of a status
/// snapshot; `u64::MAX` (which fails every assertion loudly) when the
/// block or key is missing.
fn chain_tier_counter(status: &str, key: &str) -> u64 {
    Json::parse(status)
        .ok()
        .and_then(|doc| {
            doc.as_obj()?
                .get("fleet")?
                .as_obj()?
                .get("chain_cache")?
                .as_obj()?
                .get(key)?
                .as_int()
        })
        .unwrap_or(u64::MAX)
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut failures: Vec<String> = Vec::new();
    let mut scaling_json: Option<String> = None;

    let report_json = if let Some(addr) = args.addr {
        if args.scaling {
            // External scaling sweep: latency-vs-connections against an
            // already-running server.
            let scaling = match run_gated_scaling(&scaling_config(addr, &args), &mut failures) {
                Ok(scaling) => scaling,
                Err(e) => {
                    eprintln!("scaling sweep failed against {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let json = scaling.to_json();
            scaling_json = Some(json.clone());
            json
        } else {
            // External mode: audit only.
            let report = match loadgen::run(&load_config(addr, &args)) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("loadgen failed against {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            check(&mut failures, report.clean(), "audit: lost/dup/misrouted");
            check(
                &mut failures,
                report.answered + report.lost == report.sent,
                "audit: every frame accounted for",
            );
            eprintln!(
                "external: {} sent, {} ok, {} rejected, p99 {}us",
                report.sent,
                report.ok,
                report.rejected.values().sum::<u64>(),
                report.p99_us
            );
            report.to_json()
        }
    } else if args.scaling && !args.smoke {
        // Self-hosted scaling sweep: boot one wide server and push the
        // same offered load through every sweep point.
        let server = match wide_server(&args) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("failed to start scaling server: {e}");
                return ExitCode::FAILURE;
            }
        };
        let scaling =
            match run_gated_scaling(&scaling_config(server.local_addr(), &args), &mut failures) {
                Ok(scaling) => scaling,
                Err(e) => {
                    eprintln!("scaling sweep failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
        server.shutdown();
        let json = scaling.to_json();
        scaling_json = Some(json.clone());
        json
    } else {
        // Self-hosted: steady phase (warm cache, audit-clean), then an
        // overload phase (typed rejections, bounded tail).
        let steady_server = match Server::start(ServerConfig {
            shards: args.shards.max(1),
            quota: None,
            ..ServerConfig::default()
        }) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("failed to start steady-phase server: {e}");
                return ExitCode::FAILURE;
            }
        };
        let steady_cfg = load_config(steady_server.local_addr(), &args);
        let steady = match loadgen::run(&steady_cfg) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("steady phase failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let status = steady_server.status_json();
        steady_server.shutdown();

        check(&mut failures, steady.clean(), "steady: lost/dup/misrouted");
        check(
            &mut failures,
            steady.answered == steady.sent,
            "steady: every request answered",
        );
        check(&mut failures, steady.ok == steady.sent, "steady: all ok");
        // The distinct-instance pool is tiny relative to the request
        // count, so nearly every response must come from cache. This is
        // also the per-shard cache counters' end-to-end check.
        check(
            &mut failures,
            steady.cache_hit_rate() > 0.90,
            "steady: cache hit rate > 90% on the repeated-request pool",
        );
        check(
            &mut failures,
            status.contains("\"per_shard\""),
            "steady: status exposes per-shard counters",
        );
        eprintln!(
            "steady: {} sent, {} ok, cache hit rate {:.3}, {} rps, p99 {}us",
            steady.sent,
            steady.ok,
            steady.cache_hit_rate(),
            steady.throughput_rps,
            steady.p99_us
        );

        if args.smoke {
            // Overload: one worker behind a depth-1 queue, every
            // request distinct (no cache relief), windows far wider
            // than the queue. The contract: every frame still gets a
            // typed answer — OVERLOADED, not silence — and the tail
            // stays bounded because rejection is immediate.
            let overload_server = match Server::start(ServerConfig {
                shards: 1,
                per_shard: amp_service::EngineConfig {
                    workers: 1,
                    queue_depth: 1,
                    cache_capacity: 0,
                    ..amp_service::EngineConfig::default()
                },
                window: 512,
                batch_max: 1,
                quota: None,
                ..ServerConfig::default()
            }) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("failed to start overload-phase server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let overload_cfg = LoadConfig {
                addr: overload_server.local_addr(),
                connections: args.connections,
                requests_per_connection: args.requests,
                // Pool far larger than the request count: all distinct.
                distinct_instances: args.connections * args.requests,
                seed: args.seed ^ 0xDEAD,
                read_timeout: Duration::from_secs(30),
                ..LoadConfig::default()
            };
            let overload = match loadgen::run(&overload_cfg) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("overload phase failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            overload_server.shutdown();
            let overloaded = overload.rejected.get("OVERLOADED").copied().unwrap_or(0);
            check(
                &mut failures,
                overload.clean(),
                "overload: lost/dup/misrouted",
            );
            check(
                &mut failures,
                overload.answered == overload.sent,
                "overload: every request answered (typed rejection, not silence)",
            );
            check(
                &mut failures,
                overloaded > 0,
                "overload: backpressure surfaced as typed OVERLOADED",
            );
            // Rejections are immediate, so the p99 over the mixed
            // stream must stay well under the audit read timeout.
            check(
                &mut failures,
                Duration::from_micros(overload.p99_us) < overload_cfg.read_timeout / 2,
                "overload: p99 bounded",
            );
            eprintln!(
                "overload: {} sent, {} ok, {} OVERLOADED, p99 {}us",
                overload.sent, overload.ok, overloaded, overload.p99_us
            );

            // Pool sweep: the same chain under 12 distinct pool shapes.
            // Every request misses the exact-fingerprint LRU (the pool
            // is part of that key), so this is the chain tier's
            // end-to-end gate: one cold HeRAD solve, everything else
            // answered by growing/extracting the one cached table.
            let snap_path = args.snapshot_out.clone().map_or_else(
                || {
                    std::env::temp_dir().join(format!(
                        "amp-net-smoke-snapshot-{}.json",
                        std::process::id()
                    ))
                },
                PathBuf::from,
            );
            let sweep_server = match Server::start(ServerConfig {
                shards: args.shards.max(1),
                quota: None,
                ..ServerConfig::default()
            }) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("failed to start sweep-phase server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let sweep_total = sweep_pools().len() as u64;
            let sweep_ok = match drive_sweep(sweep_server.local_addr()) {
                Ok(ok) => ok,
                Err(e) => {
                    eprintln!("sweep phase failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let sweep_status = sweep_server.status_json();
            let cold = chain_tier_counter(&sweep_status, "cold_solves");
            let warm_serves = chain_tier_counter(&sweep_status, "hits")
                .saturating_add(chain_tier_counter(&sweep_status, "grows"));
            check(&mut failures, sweep_ok == sweep_total, "sweep: all ok");
            check(
                &mut failures,
                cold == 1,
                "sweep: exactly one cold HeRAD solve across every pool shape",
            );
            check(
                &mut failures,
                warm_serves == sweep_total - 1,
                "sweep: every other pool served from the chain tier",
            );
            check(
                &mut failures,
                chain_tier_counter(&sweep_status, "hit_rate_milli") > 0,
                "sweep: chain-tier hit rate per-mille is split out and non-zero",
            );
            let written = match sweep_server.shards().save_tier_snapshot(&snap_path) {
                Ok(written) => written,
                Err(e) => {
                    eprintln!("snapshot save failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            sweep_server.shutdown();
            check(
                &mut failures,
                written == 1,
                "sweep: snapshot holds the one grown table",
            );
            eprintln!(
                "sweep: {sweep_ok}/{sweep_total} ok, {cold} cold solve(s), \
                 {warm_serves} tier serves, snapshot {} ({written} table(s))",
                snap_path.display()
            );

            // Warm restart: a fresh server loads the snapshot at boot
            // and must answer the whole sweep without a single cold
            // solve — persistence is the difference between "cache" and
            // "solve-once".
            let mut warm_per_shard = ServerConfig::default().per_shard;
            warm_per_shard.snapshot_path = Some(snap_path.clone());
            let warm_server = match Server::start(ServerConfig {
                shards: args.shards.max(1),
                per_shard: warm_per_shard,
                quota: None,
                ..ServerConfig::default()
            }) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("failed to start warm-restart server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let warm_ok = match drive_sweep(warm_server.local_addr()) {
                Ok(ok) => ok,
                Err(e) => {
                    eprintln!("warm-restart phase failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let warm_status = warm_server.status_json();
            warm_server.shutdown();
            let warm_cold = chain_tier_counter(&warm_status, "cold_solves");
            let warm_loaded = chain_tier_counter(&warm_status, "snapshot_loaded");
            check(
                &mut failures,
                warm_ok == sweep_total,
                "warm restart: all ok",
            );
            check(
                &mut failures,
                warm_cold == 0,
                "warm restart: zero cold solves after loading the snapshot",
            );
            check(
                &mut failures,
                warm_loaded >= 1 && warm_loaded != u64::MAX,
                "warm restart: snapshot tables loaded at boot",
            );
            check(
                &mut failures,
                chain_tier_counter(&warm_status, "hits") == sweep_total,
                "warm restart: every pool shape extracted from the restored table",
            );
            eprintln!(
                "warm restart: {warm_ok}/{sweep_total} ok, {warm_cold} cold solve(s), \
                 {warm_loaded} snapshot table(s) loaded"
            );
            if args.snapshot_out.is_none() {
                std::fs::remove_file(&snap_path).ok();
            }

            // Throughput floor: a sustained flat-out run (open-loop,
            // unpaced, warmup excluded from the percentiles) over the
            // corked vectored wire must answer at least twice what the
            // per-line-syscall wire's checked-in BENCH_net.json shows.
            let tp_server = match Server::start(ServerConfig {
                shards: args.shards.max(1),
                quota: None,
                ..ServerConfig::default()
            }) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("failed to start throughput-phase server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let tp_cfg = LoadConfig {
                addr: tp_server.local_addr(),
                connections: 2,
                distinct_instances: args.distinct,
                seed: args.seed ^ 0xF1A7,
                duration: Some(Duration::from_millis(args.duration_ms.unwrap_or(1500))),
                target_rps: None,
                warmup: Duration::from_millis(args.warmup_ms.unwrap_or(250)),
                read_timeout: Duration::from_secs(30),
                ..LoadConfig::default()
            };
            let throughput = match loadgen::run(&tp_cfg) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("throughput phase failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            tp_server.shutdown();
            check(
                &mut failures,
                throughput.clean(),
                "throughput: lost/dup/misrouted",
            );
            check(
                &mut failures,
                throughput.answered == throughput.sent,
                "throughput: every sent frame answered after the drain",
            );
            check(
                &mut failures,
                throughput.throughput_rps >= THROUGHPUT_FLOOR_RPS,
                "throughput: sustained rate at or above the 140k req/s floor",
            );
            eprintln!(
                "throughput: {} sent, {} rps (floor {}), p50 {}us, p99 {}us",
                throughput.sent,
                throughput.throughput_rps,
                THROUGHPUT_FLOOR_RPS,
                throughput.p50_us,
                throughput.p99_us
            );

            // Scaling curve: the same offered load through 1, 8, 64 and
            // 256 connections; the tail may not fall apart as the
            // registry and pumps fan out.
            let sc_server = match wide_server(&args) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("failed to start scaling-phase server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let scaling = match run_gated_scaling(
                &scaling_config(sc_server.local_addr(), &args),
                &mut failures,
            ) {
                Ok(scaling) => scaling,
                Err(e) => {
                    eprintln!("scaling phase failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            sc_server.shutdown();
            let curve = scaling.to_json();
            scaling_json = Some(curve.clone());

            // The combined smoke artifact: steady-state audit, the
            // sustained throughput run and the scaling curve in one
            // document (sorted keys, in-tree codec compatible).
            format!(
                "{{\"scaling\":{curve},\"steady\":{},\"throughput\":{}}}",
                steady.to_json(),
                throughput.to_json()
            )
        } else {
            steady.to_json()
        }
    };

    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{report_json}\n")) {
            eprintln!("failed to write {path}: {e}");
            failures.push("write --out artifact".to_string());
        }
    }
    if let Some(path) = &args.scaling_out {
        match &scaling_json {
            Some(json) => {
                if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                    eprintln!("failed to write {path}: {e}");
                    failures.push("write --scaling-out artifact".to_string());
                }
            }
            None => {
                eprintln!(
                    "--scaling-out given but no scaling sweep ran (add --scaling or --smoke)"
                );
                failures.push("--scaling-out without a scaling sweep".to_string());
            }
        }
    }
    println!("{report_json}");

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("FAILED: {failure}");
        }
        ExitCode::FAILURE
    }
}
