//! Per-layer metrics, read from outside the program: `kvs.stats()`, the
//! DPM's index and pool statistics, and the `dinomo_obs` registry,
//! diffed over the traced window; plus probe spans recorded around each
//! layer's public entry.

use crate::metrics::{median, ratio, self_time, user_bytes};
use crate::workload::{check_scan, check_value, key, KEY_LEN, VALUE_LEN};
use dinomo_core::{Kvs, KvsClient, KvsStats};
use dinomo_obs::LogHistogram;
use dinomo_pclht::PclhtStats;
use dinomo_pmem::PmemStats;
use dinomo_simnet::{FabricConfig, Nic};
use std::time::Instant;

/// Registry histograms the per-layer table reads.
const HISTOGRAMS: [&str; 8] = [
    "stage_queue_wait_ns",
    "stage_dpm_lookup_ns",
    "stage_flush_wait_ns",
    "stage_merge_wait_ns",
    "lock_wait_merge_engine_ns",
    "lock_wait_ordered_root_ns",
    "lock_wait_segment_table_ns",
    "lock_wait_reconfig_ns",
];

/// Everything the per-layer table diffs, captured at one instant.
pub struct Snap {
    kvs: KvsStats,
    pclht: PclhtStats,
    pmem: PmemStats,
    hists: Vec<LogHistogram>,
}

impl Snap {
    pub fn take(kvs: &Kvs) -> Snap {
        let registry = kvs.metrics();
        Snap {
            kvs: kvs.stats(),
            pclht: kvs.dpm().index().stats(),
            pmem: kvs.dpm().pool().stats(),
            hists: HISTOGRAMS
                .iter()
                .map(|name| registry.histogram(name).merged())
                .collect(),
        }
    }

    fn hist(&self, earlier: &Snap, name: &str) -> LogHistogram {
        let i = HISTOGRAMS
            .iter()
            .position(|h| *h == name)
            .expect("histogram is listed in HISTOGRAMS");
        self.hists[i].diff(&earlier.hists[i])
    }
}

/// What the benchmark itself counted over the traced window.
#[derive(Debug, Default, Clone, Copy)]
pub struct WindowCounts {
    pub ops: u64,
    pub writes: u64,
    pub scanned_pairs: u64,
    pub retries: u64,
}

/// A named per-layer metric with its unit.
pub type Metric = (String, f64, &'static str);

fn total_ns(h: &LogHistogram) -> f64 {
    h.mean() * h.count() as f64
}

/// The per-layer table over the window `[before, after]`.
pub fn window_metrics(kvs: &Kvs, before: &Snap, after: &Snap, counts: WindowCounts) -> Vec<Metric> {
    let ops = counts.ops as f64;
    let writes = counts.writes as f64;
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push((name.to_string(), value, unit));
    };

    put(
        "client.retries_per_op",
        ratio(counts.retries as f64, ops),
        "1/op",
    );

    // kn: per-node deltas (nodes are matched by id; the window has no
    // membership change).
    let kns: Vec<_> = after
        .kvs
        .kns
        .iter()
        .map(|now| match before.kvs.kns.iter().find(|b| b.id == now.id) {
            Some(then) => now.since(then),
            None => *now,
        })
        .collect();
    let window = KvsStats {
        kns,
        dpm: after.kvs.dpm,
        ownership_version: after.kvs.ownership_version,
    };
    let queue = after.hist(before, "stage_queue_wait_ns");
    put(
        "kn.queue_wait_ns_per_op",
        ratio(total_ns(&queue), ops),
        "ns/op",
    );
    let busy: u64 = window.kns.iter().map(|k| k.busy_ns).sum();
    put("kn.busy_us_per_op", ratio(busy as f64 / 1e3, ops), "us/op");
    put("kn.load_imbalance", window.load_imbalance(), "ratio");
    let busy_rejections: u64 = window.kns.iter().map(|k| k.busy_rejections).sum();
    put("kn.busy_rejections", busy_rejections as f64, "count");

    // cache: shares of cache lookups, and churn per benchmark op.
    let sum_cache = |f: fn(&dinomo_cache::CacheStats) -> u64| -> f64 {
        window.kns.iter().map(|k| f(&k.cache)).sum::<u64>() as f64
    };
    let lookups = sum_cache(|c| c.lookups());
    put(
        "cache.value_hit_ratio",
        ratio(sum_cache(|c| c.value_hits), lookups),
        "ratio",
    );
    put(
        "cache.shortcut_hit_ratio",
        ratio(sum_cache(|c| c.shortcut_hits), lookups),
        "ratio",
    );
    put(
        "cache.miss_ratio",
        ratio(sum_cache(|c| c.misses), lookups),
        "ratio",
    );
    put(
        "cache.evictions_per_op",
        ratio(sum_cache(|c| c.evictions), ops),
        "1/op",
    );
    put(
        "cache.promotions_per_op",
        ratio(sum_cache(|c| c.promotions), ops),
        "1/op",
    );
    put(
        "cache.demotions_per_op",
        ratio(sum_cache(|c| c.demotions), ops),
        "1/op",
    );

    // simnet: KN NIC traffic per benchmark op.
    let sum_nic = |f: fn(&dinomo_simnet::NicStats) -> u64| -> f64 {
        window.kns.iter().map(|k| f(&k.nic)).sum::<u64>() as f64
    };
    let rts = sum_nic(|n| n.round_trips());
    put("simnet.rts_per_op", ratio(rts, ops), "1/op");
    put(
        "simnet.one_sided_reads_per_op",
        ratio(sum_nic(|n| n.one_sided_reads), ops),
        "1/op",
    );
    put(
        "simnet.one_sided_writes_per_op",
        ratio(sum_nic(|n| n.one_sided_writes), ops),
        "1/op",
    );
    put(
        "simnet.cas_per_op",
        ratio(sum_nic(|n| n.cas_ops), ops),
        "1/op",
    );
    put(
        "simnet.rpcs_per_op",
        ratio(sum_nic(|n| n.rpcs), ops),
        "1/op",
    );
    put(
        "simnet.bytes_per_op",
        ratio(sum_nic(|n| n.total_bytes()), ops),
        "B/op",
    );
    put(
        "simnet.modeled_us_per_op",
        ratio(sum_nic(|n| n.modeled_ns) / 1e3, ops),
        "us/op",
    );
    if counts.scanned_pairs > 0 {
        put(
            "simnet.rts_per_scanned_pair",
            ratio(rts, counts.scanned_pairs as f64),
            "1/pair",
        );
    }

    // dpm.node
    let lookup = after.hist(before, "stage_dpm_lookup_ns");
    put("dpm.node.lookup_mean_ns", lookup.mean(), "ns");
    let segtable = after.hist(before, "lock_wait_segment_table_ns");
    put(
        "dpm.node.segtable_lock_wait_ns_per_op",
        ratio(total_ns(&segtable), ops),
        "ns/op",
    );
    let (d0, d1) = (&before.kvs.dpm, &after.kvs.dpm);
    put(
        "dpm.node.cell_swing_retries_per_op",
        ratio(
            d1.cell_registry_waits
                .saturating_sub(d0.cell_registry_waits) as f64,
            ops,
        ),
        "1/op",
    );

    // pclht
    let lookups_at_dpm = lookup.count() as f64;
    put(
        "pclht.read_retries_per_lookup",
        ratio(
            after
                .pclht
                .read_retries
                .saturating_sub(before.pclht.read_retries) as f64,
            lookups_at_dpm,
        ),
        "1/lookup",
    );
    put(
        "pclht.overflow_buckets",
        after.pclht.overflow_buckets as f64,
        "count",
    );
    put("pclht.resizes", after.pclht.resizes as f64, "count");

    // dpm.writer
    let flush = after.hist(before, "stage_flush_wait_ns");
    put("dpm.writer.flush_wait_count", flush.count() as f64, "count");
    put(
        "dpm.writer.flush_wait_p99_ns",
        flush.value_at_quantile(0.99) as f64,
        "ns",
    );
    put(
        "dpm.writer.flush_wait_total_ms",
        total_ns(&flush) / 1e6,
        "ms",
    );

    // dpm.merge
    let merge_wait = after.hist(before, "stage_merge_wait_ns");
    put(
        "dpm.merge.wait_ns_per_op",
        ratio(total_ns(&merge_wait), ops),
        "ns/op",
    );
    let merge_lock = after.hist(before, "lock_wait_merge_engine_ns");
    put(
        "dpm.merge.lock_wait_ns_per_op",
        ratio(total_ns(&merge_lock), ops),
        "ns/op",
    );
    put(
        "dpm.merge.entries_per_write",
        ratio(
            d1.entries_merged.saturating_sub(d0.entries_merged) as f64,
            writes,
        ),
        "1/write",
    );
    let unmerged: usize = kvs
        .kn_ids()
        .iter()
        .map(|&id| kvs.dpm().unmerged_segments(id))
        .sum();
    put("dpm.merge.unmerged_segments", unmerged as f64, "count");

    // dpm.gc
    let user = user_bytes(counts.writes, KEY_LEN, VALUE_LEN);
    put(
        "dpm.gc.segments_compacted",
        d1.segments_compacted.saturating_sub(d0.segments_compacted) as f64,
        "count",
    );
    put(
        "dpm.gc.segments_freed",
        d1.segments_freed.saturating_sub(d0.segments_freed) as f64,
        "count",
    );
    put(
        "dpm.gc.bytes_relocated_per_user_byte",
        ratio(
            d1.bytes_relocated.saturating_sub(d0.bytes_relocated) as f64,
            user,
        ),
        "B/B",
    );

    // dpm.ordered
    let root = after.hist(before, "lock_wait_ordered_root_ns");
    put(
        "dpm.ordered.root_lock_wait_ns_per_op",
        ratio(total_ns(&root), ops),
        "ns/op",
    );

    // pmem
    let (p0, p1) = (&before.pmem, &after.pmem);
    put(
        "pmem.flushes_per_write",
        ratio(p1.flushes.saturating_sub(p0.flushes) as f64, writes),
        "1/write",
    );
    put(
        "pmem.fences_per_write",
        ratio(p1.fences.saturating_sub(p0.fences) as f64, writes),
        "1/write",
    );
    put(
        "pmem.bytes_written_per_user_byte",
        ratio(
            p1.bytes_written.saturating_sub(p0.bytes_written) as f64,
            user,
        ),
        "B/B",
    );
    put(
        "pmem.allocated_mb",
        p1.allocated_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    out
}

/// The control-plane metrics of the post-window hand-offs (`(add_kn,
/// remove_kn)` seconds per cycle): medians over the cycles.
pub fn reconfig_metrics(
    kvs: &Kvs,
    before: &Snap,
    after: &Snap,
    handoffs: &[(f64, f64)],
) -> Vec<Metric> {
    let ms = |f: fn(&(f64, f64)) -> f64| {
        median(&handoffs.iter().map(|h| f(h) * 1e3).collect::<Vec<_>>())
    };
    let wait = after.hist(before, "lock_wait_reconfig_ns");
    vec![
        (
            "kvs.handoff_ms".into(),
            ms(|(add, remove)| add + remove),
            "ms",
        ),
        ("kvs.add_kn_ms".into(), ms(|(add, _)| *add), "ms"),
        ("kvs.remove_kn_ms".into(), ms(|(_, remove)| *remove), "ms"),
        ("kvs.reconfig_lock_wait_ns".into(), total_ns(&wait), "ns"),
        (
            "kvs.bytes_reshuffled".into(),
            kvs.bytes_reshuffled() as f64,
            "B",
        ),
    ]
}

/// One span of a probe: a call into one layer's public entry.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub request: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log, written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Run `f` as span `name` of `request` under `parent`; returns the
    /// span id with `f`'s result.
    pub fn span<T>(
        &mut self,
        request: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (u64, T) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            request,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        });
        (id, out)
    }

    pub fn to_json_lines(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{},\"request\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                    s.id, s.request, s.name, s.start_ns, s.end_ns
                )
            })
            .collect()
    }
}

/// Calls into each layer's public entry for sampled keys, one span per
/// call. Uses its own client and, for the DPM read, its own NIC, so the
/// window's counters are not touched.
pub struct Prober<'a> {
    kvs: &'a Kvs,
    client: KvsClient,
    nic: Nic,
    pub tracer: Tracer,
    lookups: Vec<[u64; 4]>,
    scans: Vec<[u64; 2]>,
}

impl<'a> Prober<'a> {
    pub fn new(kvs: &'a Kvs, fabric: FabricConfig) -> Self {
        Prober {
            kvs,
            client: kvs.client(),
            nic: Nic::new(fabric),
            tracer: Tracer::new(Instant::now()),
            lookups: Vec::new(),
            scans: Vec::new(),
        }
    }

    /// Look `id` up through the client, its owning node, the DPM's
    /// network read path and the DPM-local index, checking each value.
    pub fn lookup(&mut self, id: u64) -> Result<(), String> {
        let (kvs, k) = (self.kvs, key(id));
        let request = (self.lookups.len() + self.scans.len()) as u64;
        let t = &mut self.tracer;
        let (c, got) = t.span(request, None, "client.lookup", || self.client.lookup(&k));
        let owner = kvs
            .ownership()
            .read()
            .primary_owner(&k)
            .ok_or("probe: key has no owner")?;
        let kn = kvs.kn(owner).ok_or("probe: owner missing")?;
        let (n, kn_got) = t.span(request, Some(c), "kn.get", || kn.get(&k));
        let (d, remote) = t.span(request, Some(n), "dpm.node.remote_read", || {
            kvs.dpm().remote_read(&self.nic, &k)
        });
        let (p, loc) = t.span(request, Some(d), "pclht.local_lookup", || {
            kvs.dpm().local_lookup(&k)
        });
        for (layer, v) in [
            ("client", got.map_err(|e| e.to_string())?),
            ("kn", kn_got.map_err(|e| e.to_string())?),
            ("dpm", remote.value),
        ] {
            if v.as_deref().and_then(|v| check_value(id, v)).is_none() {
                return Err(format!(
                    "probe: {layer} lookup of key {id} returned a wrong value"
                ));
            }
        }
        if loc.is_none() {
            return Err(format!("probe: key {id} missing from the index"));
        }
        self.lookups.push([c, n, d, p]);
        Ok(())
    }

    /// Scan through the client's fan-out, then the same scan on every
    /// member node in one `kn.scan` span (the client calls them in turn,
    /// too), checking both results.
    pub fn scan(&mut self, start: u64, n: usize, loaded: u64) -> Result<(), String> {
        let (kvs, k) = (self.kvs, key(start));
        let request = (self.lookups.len() + self.scans.len()) as u64;
        let t = &mut self.tracer;
        let (c, got) = t.span(request, None, "client.scan", || self.client.scan(&k, n));
        check_scan(start, n, loaded, &got.map_err(|e| e.to_string())?)?;
        let version = kvs.ownership().read().version();
        let nodes: Vec<_> = kvs
            .kn_ids()
            .into_iter()
            .filter_map(|id| kvs.kn(id))
            .collect();
        let (s, parts) = t.span(request, Some(c), "kn.scan", || {
            nodes
                .iter()
                .map(|kn| kn.scan(&k, n, version))
                .collect::<Result<Vec<_>, _>>()
        });
        let mut merged: Vec<_> = parts.map_err(|e| e.to_string())?.concat();
        merged.sort();
        merged.truncate(n);
        check_scan(start, n, loaded, &merged)?;
        self.scans.push([c, s]);
        Ok(())
    }

    /// Medians over the probes of each layer's span and self time.
    pub fn metrics(&self) -> Vec<Metric> {
        let d = |id: u64| self.tracer.spans[id as usize].duration();
        let med = |xs: Vec<u64>| median(&xs.into_iter().map(|x| x as f64).collect::<Vec<_>>());
        let span = |i: usize| med(self.lookups.iter().map(|r| d(r[i])).collect());
        let own = |i: usize| {
            med(self
                .lookups
                .iter()
                .map(|r| self_time(d(r[i]), d(r[i + 1])))
                .collect())
        };
        let mut out: Vec<Metric> = vec![
            ("client.lookup_self_ns".into(), own(0), "ns"),
            ("kn.get_ns".into(), span(1), "ns"),
            ("kn.self_ns".into(), own(1), "ns"),
            ("dpm.node.remote_read_ns".into(), span(2), "ns"),
            ("dpm.node.self_ns".into(), own(2), "ns"),
            ("pclht.local_lookup_ns".into(), span(3), "ns"),
        ];
        if !self.scans.is_empty() {
            let scans = &self.scans;
            out.push((
                "client.scan_self_ns".into(),
                med(scans.iter().map(|r| self_time(d(r[0]), d(r[1]))).collect()),
                "ns",
            ));
            out.push((
                "kn.scan_ns".into(),
                med(scans.iter().map(|r| d(r[1])).collect()),
                "ns",
            ));
        }
        out
    }
}
