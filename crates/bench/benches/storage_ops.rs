//! Site-storage micro-benchmarks:
//!
//! * insert/evict churn per replacement policy at the paper's default
//!   capacity (6,000 files);
//! * eviction churn past pinned files per policy, shaped like the
//!   benchmark's `storage` workload (capacity 130 with two tasks' ~79
//!   files pinned at the head of the eviction order);
//! * the per-task hot path: `record_task_reference` (`r_i += 1` plus a
//!   recency touch) over a resident 78-file task;
//! * a task's whole file reference cycle (pin, reference, unpin its 78
//!   files) in the `sched` workload's 2,375-file universe and in the
//!   178,684-file universe of a T = 20,000 workload;
//! * overlap queries and the reference sum used by the `combined` metric.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gridsched_storage::{EvictionPolicy, SiteStore};
use gridsched_workload::FileId;

fn bench_insert_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_insert_churn");
    for policy in EvictionPolicy::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy),
            &policy,
            |b, &policy| {
                b.iter_with_setup(
                    || {
                        let mut store = SiteStore::new(6000, policy);
                        for i in 0..6000 {
                            store.insert(FileId(i));
                        }
                        (store, StdRng::seed_from_u64(1))
                    },
                    |(mut store, mut rng)| {
                        for _ in 0..1000 {
                            let f = FileId(rng.gen_range(0..60_000));
                            std::hint::black_box(store.insert(f));
                        }
                        store
                    },
                )
            },
        );
    }
    group.finish();
}

fn bench_pinned_eviction_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_pinned_eviction_churn");
    for policy in EvictionPolicy::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy),
            &policy,
            |b, &policy| {
                b.iter_with_setup(
                    || {
                        let mut store = SiteStore::new(130, policy);
                        for i in 0..130 {
                            store.insert(FileId(i));
                        }
                        // The oldest 79 files belong to two running tasks.
                        for i in 0..79 {
                            store.pin(FileId(i));
                        }
                        store
                    },
                    |mut store| {
                        for i in 0..1000 {
                            std::hint::black_box(store.insert(FileId(1000 + i)));
                        }
                        store
                    },
                )
            },
        );
    }
    group.finish();
}

fn bench_reference_touch(c: &mut Criterion) {
    let mut store = SiteStore::new(6000, EvictionPolicy::Lru);
    for i in 0..6000 {
        store.insert(FileId(i));
    }
    let mut rng = StdRng::seed_from_u64(3);
    // A typical Coadd task reads ~78 files, all resident once staged.
    let task_files: Vec<FileId> = (0..78).map(|_| FileId(rng.gen_range(0..6000))).collect();
    c.bench_function("store_reference_touch", |b| {
        b.iter(|| {
            for &f in &task_files {
                store.record_task_reference(f);
            }
        })
    });
}

fn bench_file_reference_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_file_reference_cycle");
    for universe in [2_375u32, 178_684] {
        // The site holds every file of the universe, so its slot index and
        // node slab span all of it.
        let mut store = SiteStore::new(universe as usize, EvictionPolicy::Lru);
        for i in 0..universe {
            store.insert(FileId(i));
        }
        // 64 tasks of 78 files, each drawn from a window of 300 ids (Coadd
        // inputs cluster in id space). One sample runs all 64 cycles:
        // divide by 4,992 for the time per file.
        let mut rng = StdRng::seed_from_u64(4);
        let tasks: Vec<Vec<FileId>> = (0..64)
            .map(|_| {
                let start = rng.gen_range(0..universe - 300);
                (0..78)
                    .map(|_| FileId(start + rng.gen_range(0..300u32)))
                    .collect()
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(universe), &tasks, |b, tasks| {
            b.iter(|| {
                for files in tasks {
                    for &f in files {
                        store.pin(f);
                    }
                    for &f in files {
                        store.record_task_reference(f);
                    }
                    for &f in files {
                        store.unpin(f);
                    }
                }
            })
        });
    }
    group.finish();
}

fn bench_overlap_queries(c: &mut Criterion) {
    let mut store = SiteStore::new(6000, EvictionPolicy::Lru);
    let mut rng = StdRng::seed_from_u64(2);
    for i in 0..6000 {
        store.insert(FileId(i));
        if i % 3 == 0 {
            store.record_task_reference(FileId(i));
        }
    }
    // A typical Coadd task reads ~78 files; half resident.
    let task_files: Vec<FileId> = (0..78).map(|_| FileId(rng.gen_range(0..12_000))).collect();
    c.bench_function("store_overlap_78files", |b| {
        b.iter(|| std::hint::black_box(store.overlap(&task_files)))
    });
    c.bench_function("store_overlap_ref_sum_78files", |b| {
        b.iter(|| std::hint::black_box(store.overlap_ref_sum(&task_files)))
    });
    c.bench_function("store_missing_78files", |b| {
        b.iter(|| std::hint::black_box(store.missing(&task_files)))
    });
}

criterion_group!(
    benches,
    bench_insert_churn,
    bench_pinned_eviction_churn,
    bench_reference_touch,
    bench_file_reference_cycle,
    bench_overlap_queries
);
criterion_main!(benches);
