//! The repository benchmark: three closed-loop workloads on one fixed
//! DINOMO cluster over a busy-spin fabric, with output checks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer table, measured in a traced window between two untraced
//! ones so the tracing overhead is measured in the same run. The last
//! line of standard output is one JSON object. A wrong value anywhere
//! (lookup, scan, or after crash recovery) or a panicked client thread
//! exits non-zero.

mod layers;
mod metrics;
mod workload;

use dinomo_core::{Kvs, KvsClient, KvsError, Variant};
use dinomo_dpm::{DpmConfig, GcConfig};
use dinomo_pclht::PclhtConfig;
use dinomo_pmem::PmemConfig;
use dinomo_simnet::{DelayMode, FabricConfig};
use layers::{Metric, Prober, Snap, WindowCounts};
use metrics::{median, quantile, ratio, supports, trace_overhead};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use workload::{check_scan, check_value, key, mix64, value, Op, OpStream, Spec, CLIENTS};

const KNS: usize = 4;
const SHARDS_PER_KN: usize = 2;
const MERGE_THREADS: usize = 1;
const SEGMENT_BYTES: u64 = 1 << 20;
const POOL_BYTES: u64 = 256 << 20;
/// Each write is flushed to the DPM log before it is acknowledged, so
/// every acknowledged write must survive `crash_dpm_and_recover`.
const WRITE_BATCH_OPS: usize = 1;
/// Cluster set-ups per run; `setup_s` is their median.
const SETUPS: Repeat = Repeat {
    min: 3,
    max: 9,
    budget: Duration::from_secs(3),
};
const WARMUP: Duration = Duration::from_secs(1);
/// Extra attempts the benchmark makes for an op whose call returned an
/// error (the client already retries routing errors internally).
const OP_RETRIES: u32 = 3;
/// Hand-off cycles after the window (`kvs.handoff_ms` is their median), each
/// after a burst of `BURST_OPS` ops that leaves un-merged writes behind.
/// Both are fixed so every run writes the same amount before the
/// recoveries.
const HANDOFFS: usize = 10;
const BURST_OPS: i64 = 10_000;
/// Crash-recover cycles (`recover.time_s` is their median).
const RECOVERIES: Repeat = Repeat {
    min: 3,
    max: 25,
    budget: Duration::from_secs(3),
};
const LOOKUP_PROBES: usize = 200;
const SCAN_PROBES: usize = 8;
const LOAD_BATCH: usize = 1024;

struct Args {
    workload: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = workload::spec(&name).ok_or(format!("unknown workload {name}"))?;
    let num = |s: String, flag: &str| s.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let seed = num(get("--seed")?, "--seed")?;
    let seconds = num(get("--seconds")?, "--seconds")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn fabric() -> FabricConfig {
    FabricConfig {
        delay: DelayMode::full(),
        ..FabricConfig::default()
    }
}

struct Setup {
    kvs: Kvs,
    build_s: f64,
    load_s: f64,
    quiesce_s: f64,
}

impl Setup {
    fn total_s(&self) -> f64 {
        self.build_s + self.load_s + self.quiesce_s
    }
}

/// Build the cluster, bulk-load every key at version 0, replicate the hot
/// keys, and quiesce.
fn set_up(spec: &Spec) -> Result<Setup, String> {
    let t0 = Instant::now();
    let kvs = Kvs::builder()
        .variant(Variant::Dinomo)
        .initial_kns(KNS)
        .threads_per_kn(SHARDS_PER_KN)
        .cache_bytes_per_kn(spec.cache_bytes_per_kn)
        .write_batch_ops(WRITE_BATCH_OPS)
        .fabric(fabric())
        .dpm(DpmConfig {
            pool: PmemConfig::with_capacity(POOL_BYTES),
            segment_bytes: SEGMENT_BYTES,
            merge_threads: MERGE_THREADS,
            index: PclhtConfig::for_capacity(spec.keys as usize * 2),
            gc: GcConfig::aggressive(),
            ..DpmConfig::default()
        })
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let build_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let client = kvs.client();
    let ids: Vec<u64> = (0..spec.keys).collect();
    for chunk in ids.chunks(LOAD_BATCH) {
        let replies = client.multi_put(chunk.iter().map(|&id| (key(id), value(id, 0))));
        if let Some(bad) = replies.iter().find(|r| !r.is_ok()) {
            return Err(format!("bulk load: {bad:?}"));
        }
    }
    replicate_hot_keys(&kvs, spec)?;
    let load_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    kvs.quiesce().map_err(|e| format!("quiesce: {e}"))?;
    Ok(Setup {
        kvs,
        build_s,
        load_s,
        quiesce_s: t2.elapsed().as_secs_f64(),
    })
}

/// Replicate the workload's hottest keys that are not replicated (yet, or
/// any more: removing a node collapses the replications it held).
fn replicate_hot_keys(kvs: &Kvs, spec: &Spec) -> Result<(), String> {
    for id in spec.sampler().hottest(spec.replicated_keys) {
        let k = key(id);
        if !kvs.ownership().read().is_replicated(&k) {
            kvs.replicate_key(&k, spec.replication_factor)
                .map_err(|e| format!("replicate key {id}: {e}"))?;
        }
    }
    Ok(())
}

/// What one client thread measured in one phase of the window.
#[derive(Default)]
struct PhaseRec {
    attempted: u64,
    failed: u64,
    retries: u64,
    writes: u64,
    scanned_pairs: u64,
    lookup_ns: Vec<u64>,
    write_ns: Vec<u64>,
    scan_ns: Vec<u64>,
    /// Final errors of failed ops, by kind.
    errors: BTreeMap<String, u64>,
}

impl PhaseRec {
    fn fail(&mut self, e: &KvsError) {
        self.failed += 1;
        *self.errors.entry(format!("{e:?}")).or_default() += 1;
    }

    fn absorb(&mut self, other: PhaseRec) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retries += other.retries;
        self.writes += other.writes;
        self.scanned_pairs += other.scanned_pairs;
        self.lookup_ns.extend(other.lookup_ns);
        self.write_ns.extend(other.write_ns);
        self.scan_ns.extend(other.scan_ns);
        for (e, n) in other.errors {
            *self.errors.entry(e).or_default() += n;
        }
    }
}

/// A client thread's result: per-phase records, and the exact last
/// acknowledged version of every key it wrote (keys whose last write
/// failed are uncertain and left out of the recovery check).
struct ClientResult {
    phases: Vec<PhaseRec>,
    acked: HashMap<u64, u64>,
    uncertain: HashSet<u64>,
}

/// The main thread's hold over the client threads: which phase their ops
/// are recorded in (or a pause, or the stop), how many ops they may still
/// start, how many ops are in flight, so a pause can wait for the clients
/// to go idle, and how many clients still run, so a burst cannot wait on
/// clients that stopped on an error.
struct Control {
    phase: AtomicUsize,
    budget: AtomicI64,
    in_flight: AtomicUsize,
    running: AtomicUsize,
}

const STOP: usize = usize::MAX;
const PAUSED: usize = usize::MAX - 1;
const UNLIMITED: i64 = i64::MAX;

impl Control {
    fn new() -> Self {
        Control {
            phase: AtomicUsize::new(0),
            budget: AtomicI64::new(UNLIMITED),
            in_flight: AtomicUsize::new(0),
            running: AtomicUsize::new(CLIENTS as usize),
        }
    }

    fn set(&self, phase: usize) {
        self.phase.store(phase, Ordering::SeqCst);
    }

    /// Whether a client may start one more op. The budget is only touched
    /// during a burst, so measured phases pay one shared read.
    fn take_op(&self) -> bool {
        self.budget.load(Ordering::Relaxed) == UNLIMITED
            || self.budget.fetch_sub(1, Ordering::SeqCst) > 0
    }

    /// Let the clients run `ops` more ops in `phase`, then pause them.
    fn burst(&self, phase: usize, ops: i64) {
        self.budget.store(ops, Ordering::SeqCst);
        self.set(phase);
        while self.budget.load(Ordering::SeqCst) > 0 && self.running.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
        self.pause();
        self.budget.store(UNLIMITED, Ordering::SeqCst);
    }

    /// Pause the clients and wait until no op is in flight.
    fn pause(&self) {
        self.set(PAUSED);
        while self.in_flight.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
    }
}

/// Holds one count of a counter until dropped (also on an early return or
/// a panic).
struct Counted<'a>(&'a AtomicUsize);

impl Counted<'_> {
    fn new(counter: &AtomicUsize) -> Counted<'_> {
        counter.fetch_add(1, Ordering::SeqCst);
        Counted(counter)
    }
}

impl Drop for Counted<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run `op`, retrying a failed call up to [`OP_RETRIES`] times. Returns the
/// last outcome and the number of retries made.
fn with_retries<T>(mut call: impl FnMut() -> Result<T, KvsError>) -> (Result<T, KvsError>, u64) {
    let mut retries = 0;
    loop {
        match call() {
            Err(_) if retries < OP_RETRIES as u64 => retries += 1,
            other => return (other, retries),
        }
    }
}

fn client_loop(
    client: KvsClient,
    mut stream: OpStream,
    spec: Spec,
    thread: u64,
    ctl: &Control,
    phases: usize,
) -> Result<ClientResult, String> {
    let mut recs: Vec<PhaseRec> = (0..phases).map(|_| PhaseRec::default()).collect();
    let mut acked: HashMap<u64, u64> = HashMap::new();
    let mut uncertain: HashSet<u64> = HashSet::new();
    // `running` starts at the client count; this only gives the count back.
    let _running = Counted(&ctl.running);
    loop {
        // Announce the op before reading the phase, so a pause that reads
        // zero ops in flight afterwards cannot miss it.
        let in_flight = Counted::new(&ctl.in_flight);
        let p = ctl.phase.load(Ordering::SeqCst);
        if p == STOP {
            break;
        }
        if p == PAUSED || !ctl.take_op() {
            drop(in_flight);
            std::thread::yield_now();
            continue;
        }
        let op = stream.next_op();
        let t0 = Instant::now();
        let rec = &mut recs[p];
        rec.attempted += 1;
        match op {
            Op::Lookup(id) => {
                let k = key(id);
                let (got, retries) = with_retries(|| client.lookup(&k));
                let ns = t0.elapsed().as_nanos() as u64;
                rec.retries += retries;
                match got {
                    Ok(Some(v)) => {
                        let version = check_value(id, &v).ok_or(format!(
                            "lookup of key {id} returned a value of another key or a corrupt value"
                        ))?;
                        // Single writer per key: this thread knows the
                        // exact version of every key of its parity.
                        if id % CLIENTS == thread && !uncertain.contains(&id) {
                            let expected = acked.get(&id).copied().unwrap_or(0);
                            if version != expected {
                                return Err(format!(
                                    "lookup of key {id} read version {version:#x}, last acknowledged {expected:#x}"
                                ));
                            }
                        }
                        rec.lookup_ns.push(ns);
                    }
                    Ok(None) => return Err(format!("lookup of loaded key {id} found nothing")),
                    Err(e) => rec.fail(&e),
                }
            }
            Op::Write { id, version } => {
                let (k, v) = (key(id), value(id, version));
                let (got, retries) = with_retries(|| client.update(&k, &v));
                let ns = t0.elapsed().as_nanos() as u64;
                rec.retries += retries;
                match got {
                    Ok(()) => {
                        rec.write_ns.push(ns);
                        rec.writes += 1;
                        acked.insert(id, version);
                        uncertain.remove(&id);
                    }
                    Err(e) => {
                        rec.fail(&e);
                        uncertain.insert(id);
                    }
                }
            }
            Op::Scan { start, n } => {
                let k = key(start);
                let (got, retries) = with_retries(|| client.scan(&k, n));
                let ns = t0.elapsed().as_nanos() as u64;
                rec.retries += retries;
                match got {
                    Ok(pairs) => {
                        check_scan(start, n, spec.keys, &pairs)?;
                        rec.scan_ns.push(ns);
                        rec.scanned_pairs += pairs.len() as u64;
                    }
                    Err(e) => rec.fail(&e),
                }
            }
        }
    }
    Ok(ClientResult {
        phases: recs,
        acked,
        uncertain,
    })
}

/// What the main thread does while the clients run one phase.
enum Phase {
    /// Let the clients run; `traced` turns the registry's timing on.
    Measure { duration: Duration, traced: bool },
    /// Hand-off cycles: a burst of load, then, with the clients paused,
    /// one `add_kn` followed by one `remove_kn` of the added node.
    Handoffs { traced: bool },
}

struct Window {
    /// Per phase, both clients merged.
    phases: Vec<PhaseRec>,
    /// Wall seconds of each phase.
    elapsed: Vec<f64>,
    /// `(add_kn, remove_kn)` seconds of each hand-off cycle.
    handoffs: Vec<(f64, f64)>,
    /// `segment_bytes_allocated / live_bytes` after each measured phase.
    space_amp: Vec<f64>,
    acked: HashMap<u64, u64>,
    uncertain: HashSet<u64>,
}

/// Run the closed loop: a warm-up, then `plan`. `on_boundary(i)` runs on
/// the main thread with the clients paused, just before phase `i` starts,
/// and with `i == plan.len()` once the last one ends.
fn run_window(
    kvs: &Kvs,
    spec: Spec,
    seed: u64,
    plan: &[Phase],
    mut on_boundary: impl FnMut(usize) -> Result<(), String>,
) -> Result<Window, String> {
    let ctl = Control::new();
    let sampler = spec.sampler();
    // Phase 0 of the clients' records is the warm-up.
    let nphases = plan.len() + 1;
    let mut elapsed = Vec::new();
    let mut handoffs = Vec::new();
    let mut space_amp = Vec::new();
    let (driven, results) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let client = kvs.client();
                let stream = OpStream::new(spec, sampler.clone(), seed, t);
                let ctl = &ctl;
                s.spawn(move || client_loop(client, stream, spec, t, ctl, nphases))
            })
            .collect();
        std::thread::sleep(WARMUP);
        let mut drive = || -> Result<(), String> {
            for (i, step) in plan.iter().enumerate() {
                let traced = match step {
                    Phase::Measure { traced, .. } | Phase::Handoffs { traced } => *traced,
                };
                ctl.pause();
                dinomo_obs::set_enabled(traced);
                on_boundary(i)?;
                let t = Instant::now();
                ctl.set(i + 1);
                match step {
                    Phase::Measure { duration, .. } => {
                        std::thread::sleep(*duration);
                        let dpm = kvs.dpm().stats();
                        space_amp.push(ratio(
                            dpm.segment_bytes_allocated as f64,
                            dpm.live_bytes as f64,
                        ));
                    }
                    Phase::Handoffs { .. } => {
                        // Each cycle hands off the un-merged writes a
                        // fixed burst of ops left behind, with the clients
                        // paused so no op races the hand-off.
                        for _ in 0..HANDOFFS {
                            ctl.burst(i + 1, BURST_OPS);
                            let t_add = Instant::now();
                            let added = kvs.add_kn().map_err(|e| format!("add_kn: {e}"))?;
                            let add_s = t_add.elapsed().as_secs_f64();
                            let t_remove = Instant::now();
                            kvs.remove_kn(added)
                                .map_err(|e| format!("remove_kn: {e}"))?;
                            handoffs.push((add_s, t_remove.elapsed().as_secs_f64()));
                            // Every cycle starts from the workload's shape.
                            replicate_hot_keys(kvs, &spec)?;
                        }
                    }
                }
                elapsed.push(t.elapsed().as_secs_f64());
            }
            Ok(())
        };
        let driven = drive().and_then(|()| {
            ctl.pause();
            on_boundary(plan.len())
        });
        ctl.set(STOP);
        dinomo_obs::set_enabled(false);
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (driven, results)
    });
    let mut phases: Vec<PhaseRec> = (0..nphases).map(|_| PhaseRec::default()).collect();
    let mut acked = HashMap::new();
    let mut uncertain = HashSet::new();
    for (t, r) in results.into_iter().enumerate() {
        let r = r.map_err(|_| format!("client thread {t} panicked"))??;
        for (m, p) in phases.iter_mut().zip(r.phases) {
            m.absorb(p);
        }
        acked.extend(r.acked);
        uncertain.extend(r.uncertain);
    }
    driven?;
    phases.remove(0);
    Ok(Window {
        phases,
        elapsed,
        handoffs,
        space_amp,
        acked,
        uncertain,
    })
}

/// How often a repeated measurement runs: at least `min` times, then on
/// until `budget` is spent or `max` is reached.
struct Repeat {
    min: usize,
    max: usize,
    budget: Duration,
}

fn repeat<T>(r: Repeat, mut f: impl FnMut() -> Result<T, String>) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < r.min || (out.len() < r.max && start.elapsed() < r.budget) {
        out.push(f()?);
    }
    Ok(out)
}

struct Recovered {
    /// Seconds of each crash-recover cycle.
    times: Vec<f64>,
    /// The process's peak resident memory through the first recovery.
    peak_rss_mb: f64,
    layer: Vec<Metric>,
}

/// Crash the DPM and recover ([`RECOVERIES`]), then read back every
/// key: each must hold its exact last acknowledged version (0 for keys
/// never written). Returns the recovery times and the last report's
/// per-layer counts.
fn crash_and_verify(kvs: &Kvs, spec: &Spec, w: &Window) -> Result<Recovered, String> {
    let mut peak_rss = 0.0;
    let runs = repeat(RECOVERIES, || {
        let t = Instant::now();
        let report = kvs
            .crash_dpm_and_recover()
            .map_err(|e| format!("crash recovery: {e}"))?;
        let took = t.elapsed().as_secs_f64();
        // Peak memory through one recovery; the repeats only time it.
        if peak_rss == 0.0 {
            peak_rss = peak_rss_mb();
        }
        Ok((took, report))
    })?;
    let times: Vec<f64> = runs.iter().map(|(t, _)| *t).collect();
    let report = &runs.last().expect("at least one recovery").1;
    let mut expected: Vec<(u64, u64)> = (0..spec.keys)
        .map(|id| (id, w.acked.get(&id).copied().unwrap_or(0)))
        .collect();
    expected.extend(
        w.acked
            .iter()
            .filter(|(id, _)| **id >= spec.keys)
            .map(|(id, v)| (*id, *v)),
    );
    let client = kvs.client();
    for chunk in expected.chunks(LOAD_BATCH) {
        let replies = client.multi_get(chunk.iter().map(|(id, _)| key(*id)));
        for ((id, want), reply) in chunk.iter().zip(replies) {
            if w.uncertain.contains(id) {
                continue;
            }
            let got = reply
                .into_value()
                .map_err(|e| format!("read-back of key {id} after recovery: {e}"))?;
            let version = got.as_deref().and_then(|v| check_value(*id, v));
            if version != Some(*want) {
                return Err(format!(
                    "after recovery key {id} reads {version:?}, last acknowledged {want:#x}"
                ));
            }
        }
    }
    let layer = vec![
        (
            "recover.entries_recovered".into(),
            report.recovery.entries_recovered as f64,
            "count",
        ),
        (
            "recover.ordered_rebuilt".into(),
            report.ordered_rebuilt as f64,
            "count",
        ),
    ];
    Ok(Recovered {
        times,
        peak_rss_mb: peak_rss,
        layer,
    })
}

/// Lookup probes of keys drawn like the workload's, and scan probes if
/// it scans.
fn probe(prober: &mut Prober, spec: &Spec, seed: u64) -> Result<(), String> {
    let sampler = spec.sampler();
    let mut rng = StdRng::seed_from_u64(mix64(seed ^ 0x70_72_6f_62_65));
    for _ in 0..LOOKUP_PROBES {
        prober.lookup(sampler.next(&mut rng))?;
    }
    if spec.scan > 0.0 {
        for _ in 0..SCAN_PROBES {
            let start = sampler.next(&mut rng);
            let len = 1 + (rng.next_u64() % workload::MAX_SCAN_LEN as u64) as usize;
            prober.scan(start, len, spec.keys)?;
        }
    }
    Ok(())
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `<op>_p<q>_us` for each quantile `q`: the median over the slices of
/// each slice's percentile, if the slices have samples of the op. A
/// percentile the slices' samples cannot support is noted.
fn latency_metrics(
    op: &str,
    slices: &mut [Vec<u64>],
    qs: &[f64],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    if slices.iter().all(|s| s.is_empty()) {
        return Vec::new();
    }
    let fewest = slices.iter().map(Vec::len).min().unwrap_or(0);
    qs.iter()
        .map(|&q| {
            let name = format!("{op}_p{}_us", (q * 100.0).round());
            if !supports(fewest, q) {
                notes.push(format!(
                    "{name}: a slice with {fewest} samples does not support it"
                ));
            }
            let per_slice: Vec<f64> = slices
                .iter_mut()
                .map(|s| quantile(s, q) as f64 / 1e3)
                .collect();
            (name, median(&per_slice), "us")
        })
        .collect()
}

/// Completed ops per second of each slice.
fn slice_rates(
    phases: &[PhaseRec],
    elapsed: &[f64],
    slices: impl Iterator<Item = usize>,
) -> Vec<f64> {
    slices
        .map(|i| (phases[i].attempted - phases[i].failed) as f64 / elapsed[i])
        .collect()
}

fn run(args: &Args) -> Result<(Vec<Metric>, u64, u64), String> {
    let spec = args.workload;
    let fab = fabric();
    println!(
        "params: {} seconds={} trace={} variant=dinomo kns={KNS} shards_per_kn={SHARDS_PER_KN} \
         merge_threads={MERGE_THREADS} segment_bytes={SEGMENT_BYTES} pool_bytes={POOL_BYTES} \
         write_batch_ops={WRITE_BATCH_OPS} gc=aggressive fabric=busy-spin(1/1) \
         one_sided_ns={} rpc_ns={} available_parallelism={}",
        spec.describe(args.seed),
        args.seconds,
        args.trace as u8,
        fab.one_sided_latency_ns,
        fab.rpc_latency_ns,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    dinomo_obs::set_enabled(false);

    let mut setup: Option<Setup> = None;
    let setup_times = repeat(SETUPS, || {
        // Drop the previous cluster before building the next one.
        drop(setup.take());
        let s = set_up(&spec)?;
        let times = [s.total_s(), s.build_s, s.load_s, s.quiesce_s];
        setup = Some(s);
        Ok(times)
    })?;
    let kvs = setup.expect("at least one set-up").kvs;
    let setup_med = |i: usize| median(&setup_times.iter().map(|t| t[i]).collect::<Vec<_>>());
    let sub_batches: u64 = kvs.stats().kns.iter().map(|k| k.sub_batches).sum();

    // The window is cut into slices; a traced run traces the middle half
    // and measures the untraced slices around it for the overhead.
    let n = args.seconds.max(4) as usize;
    let slice = Duration::from_secs_f64(args.seconds as f64 / n as f64);
    let is_traced = |i: usize| args.trace && (n / 4..n - n / 4).contains(&i);
    let mut plan: Vec<Phase> = (0..n)
        .map(|i| Phase::Measure {
            duration: slice,
            traced: is_traced(i),
        })
        .collect();
    plan.push(Phase::Handoffs { traced: args.trace });
    let mut snaps: Vec<Snap> = Vec::new();
    let mut prober = Prober::new(&kvs, fab);
    let mut w = run_window(&kvs, spec, args.seed, &plan, |i| {
        if !args.trace {
            return Ok(());
        }
        // Probes run on the idle cluster between the window and the
        // hand-offs (which empty the caches).
        if i == n {
            probe(&mut prober, &spec, args.seed)?;
        }
        // Around the traced slices, and around the hand-offs.
        if i == n / 4 || i == n - n / 4 || i >= n {
            snaps.push(Snap::take(&kvs));
        }
        Ok(())
    })?;
    let attempted: u64 = w.phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = w.phases.iter().map(|p| p.failed).sum();
    let mut errors: BTreeMap<&str, u64> = BTreeMap::new();
    for p in &w.phases {
        for (e, n) in &p.errors {
            *errors.entry(e).or_default() += n;
        }
    }
    if !errors.is_empty() {
        println!("failed ops by final error: {errors:?}");
    }
    let handoff_ms: Vec<f64> = w.handoffs.iter().map(|(a, r)| (a + r) * 1e3).collect();

    let recovered = crash_and_verify(&kvs, &spec, &w)?;
    let recover_s = &recovered.times;

    if !args.trace {
        let measured = &mut w.phases[..n];
        let mut notes = Vec::new();
        let mut e2e: Vec<Metric> = vec![
            ("setup_s".into(), setup_med(0), "s"),
            (
                "ops_per_s".into(),
                median(&slice_rates(measured, &w.elapsed, 0..n)),
                "1/s",
            ),
        ];
        let mut take = |f: fn(&mut PhaseRec) -> &mut Vec<u64>| -> Vec<Vec<u64>> {
            measured.iter_mut().map(|p| std::mem::take(f(p))).collect()
        };
        let (mut lookups, mut writes, mut scans) = (
            take(|p| &mut p.lookup_ns),
            take(|p| &mut p.write_ns),
            take(|p| &mut p.scan_ns),
        );
        e2e.extend(latency_metrics(
            "read",
            &mut lookups,
            &[0.5, 0.99],
            &mut notes,
        ));
        e2e.extend(latency_metrics("write", &mut writes, &[0.5], &mut notes));
        e2e.extend(latency_metrics("scan", &mut scans, &[0.5, 0.9], &mut notes));
        e2e.extend([
            ("space_amp".into(), median(&w.space_amp), "ratio"),
            ("peak_rss_mb".into(), recovered.peak_rss_mb, "MiB"),
        ]);
        let count = |v: &[Vec<u64>]| v.iter().map(Vec::len).sum::<usize>();
        println!(
            "samples: slices={n} lookups={} writes={} scans={} handoffs={} recoveries={} \
             attempted={attempted} failed_frac={}",
            count(&lookups),
            count(&writes),
            count(&scans),
            handoff_ms.len(),
            recover_s.len(),
            ratio(failed as f64, attempted as f64),
        );
        let rates = slice_rates(&w.phases, &w.elapsed, 0..n);
        let rounded = |v: &[f64], scale: f64| -> Vec<f64> {
            v.iter().map(|x| (x * scale).round() / scale).collect()
        };
        println!("slice ops/s: {:?}", rounded(&rates, 1.0));
        println!("handoff ms: {:?}", rounded(&handoff_ms, 100.0));
        println!("recover s: {:?}", rounded(recover_s, 1000.0));
        for n in notes {
            println!("note: {n}");
        }
        print_table("end-to-end", &e2e);
        return Ok((e2e, attempted, failed));
    }

    let traced: Vec<usize> = (0..n).filter(|&i| is_traced(i)).collect();
    let untraced: Vec<usize> = (0..n).filter(|&i| !is_traced(i)).collect();
    let overhead = trace_overhead(
        median(&slice_rates(&w.phases, &w.elapsed, untraced.into_iter())),
        median(&slice_rates(&w.phases, &w.elapsed, traced.iter().copied())),
    );
    let mut t = PhaseRec::default();
    for i in traced {
        t.absorb(std::mem::take(&mut w.phases[i]));
    }
    let counts = WindowCounts {
        ops: t.attempted,
        writes: t.writes,
        scanned_pairs: t.scanned_pairs,
        retries: t.retries,
    };
    let mut out: Vec<Metric> = Vec::new();
    for (name, samples) in [
        ("client.lookup_ns", &mut t.lookup_ns),
        ("client.write_ns", &mut t.write_ns),
        ("client.scan_ns", &mut t.scan_ns),
    ] {
        if !samples.is_empty() {
            out.push((name.into(), quantile(samples, 0.5) as f64, "ns"));
        }
    }
    if !t.write_ns.is_empty() {
        out.push((
            "client.write_p99_ns".into(),
            quantile(&mut t.write_ns, 0.99) as f64,
            "ns",
        ));
    }
    out.extend(prober.metrics());
    out.extend(layers::window_metrics(&kvs, &snaps[0], &snaps[1], counts));
    out.push(("executor.sub_batches".into(), sub_batches as f64, "count"));
    out.extend(layers::reconfig_metrics(
        &kvs,
        &snaps[2],
        &snaps[3],
        &w.handoffs,
    ));
    out.push(("recover.time_s".into(), median(recover_s), "s"));
    out.extend(recovered.layer);
    out.push(("setup.build_s".into(), setup_med(1), "s"));
    out.push(("setup.load_s".into(), setup_med(2), "s"));
    out.push(("setup.quiesce_s".into(), setup_med(3), "s"));
    out.push(("trace_overhead".into(), overhead, "ratio"));
    let spans_path = format!("perfbench/out/spans-{}-seed{}.jsonl", spec.name, args.seed);
    match std::fs::create_dir_all("perfbench/out")
        .and_then(|()| std::fs::write(&spans_path, prober.tracer.to_json_lines()))
    {
        Ok(()) => println!(
            "spans: {} written to {spans_path}",
            prober.tracer.spans.len()
        ),
        Err(e) => println!("spans: not written ({e})"),
    }
    print_table("per-layer", &out);
    Ok((out, attempted, failed))
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for (name, value, unit) in metrics {
        println!("  {name:<42} {value:>16.4} {unit}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <read_hot|write_spill|scan_e> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((metrics, attempted, failed)) => {
            let body: Vec<String> = metrics
                .iter()
                .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
                .collect();
            println!(
                "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
                body.join(", ")
            );
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::exit(1);
        }
    }
}
