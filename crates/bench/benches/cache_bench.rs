//! Micro-benchmarks of the KN cache policies (ablation for the DAC design
//! choice: adaptive vs static splits vs shortcut-only).

use criterion::{criterion_group, criterion_main, Criterion};
use dinomo_cache::{build_cache, CacheKind, CacheLookup, KnCache, ValueLoc};

fn exercise(cache: &mut dyn KnCache, keys: u32, value_len: usize) {
    for i in 0..keys {
        let key = format!("key{i:06}").into_bytes();
        match cache.lookup(&key) {
            CacheLookup::Value(_) => {}
            CacheLookup::Shortcut(loc) => {
                cache.admit_value(&key, &vec![0u8; value_len], loc);
            }
            CacheLookup::Miss => {
                cache.record_miss_cost(3);
                cache.admit_value(
                    &key,
                    &vec![0u8; value_len],
                    ValueLoc::new(u64::from(i) * 1024, value_len as u32),
                );
            }
        }
    }
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("kn_cache");
    group.sample_size(20);
    for (name, kind) in [
        ("dac", CacheKind::Dac),
        ("shortcut_only", CacheKind::ShortcutOnly),
        ("value_only", CacheKind::ValueOnly),
        ("static_40", CacheKind::StaticFraction(40)),
    ] {
        group.bench_function(format!("churn_{name}"), |b| {
            let mut cache = build_cache(kind, 256 << 10);
            // Warm up so steady-state eviction/promotion behaviour is measured.
            exercise(cache.as_mut(), 4_000, 128);
            b.iter(|| exercise(cache.as_mut(), 2_000, 128));
        });
    }

    group.bench_function("dac_hit_path", |b| {
        let mut cache = build_cache(CacheKind::Dac, 8 << 20);
        for i in 0..1_000u32 {
            let key = format!("key{i:06}").into_bytes();
            cache.on_local_write(&key, &[0u8; 128], ValueLoc::new(u64::from(i), 128));
        }
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 1_000;
            let key = format!("key{i:06}").into_bytes();
            std::hint::black_box(cache.lookup(&key))
        });
    });
    // A write_spill shard's DAC: a 128 KiB budget full of ~4,100 shortcuts
    // for 8-B keys, and 128-B values too big to promote over them. Every
    // iteration is the KN's shortcut-hit arm: lookup, then offer the value
    // back to the cache, which runs the Equation 1 check against a full LFU
    // order. The churn cases above use sequential keys and never reach it.
    group.bench_function("dac_shortcut_hit_full_budget", |b| {
        let mut cache = build_cache(CacheKind::Dac, 128 << 10);
        let key = |i: u64| i.to_be_bytes();
        let mut resident = Vec::new();
        for i in 0..6_000u64 {
            cache.admit_shortcut(&key(i), ValueLoc::new(i * 1024, 128));
        }
        for i in 0..6_000u64 {
            if let CacheLookup::Shortcut(_) = cache.lookup(&key(i)) {
                resident.push(key(i));
            }
        }
        assert!(
            resident.len() > 4_000,
            "expected a budget full of shortcuts, got {}",
            resident.len()
        );
        let value = [0u8; 128];
        let mut next = 0;
        b.iter(|| {
            next = (next + 1) % resident.len();
            let k = &resident[next];
            if let CacheLookup::Shortcut(loc) = cache.lookup(k) {
                cache.admit_value(k, &value, loc);
            }
        });
        let s = cache.stats();
        assert_eq!(
            (s.promotions, s.value_entries),
            (0, 0),
            "every iteration must stay a shortcut hit"
        );
    });
    group.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
