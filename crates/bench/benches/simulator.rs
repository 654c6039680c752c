//! Microbenchmarks of the simulator's own building blocks: these bound
//! how much paper-scale experimentation a wall-clock budget buys.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pfm_bpred::{Predictor, PredictorKind};
use pfm_core::{Core, CoreConfig, NoPfm};
use pfm_isa::mem::SparseMem;
use pfm_isa::reg::names::*;
use pfm_isa::{Asm, Machine, SpecMemory};
use pfm_mem::cache::{Cache, CacheConfig};
use pfm_mem::{AccessKind, Hierarchy, HierarchyConfig};

fn bench_sparse_mem(c: &mut Criterion) {
    let mut g = c.benchmark_group("sparse_mem");
    g.throughput(Throughput::Elements(1));
    // 1 MiB resident working set, then a strided read mix that stays
    // mostly on one page (the simulator's access pattern) with a page
    // switch every 512 reads.
    let mut m = SparseMem::new();
    for a in (0..1u64 << 20).step_by(8) {
        m.write(a, 8, a);
    }
    let mut i = 0u64;
    g.bench_function("read8_mostly_same_page", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let addr = (((i >> 9) << 12) | ((i & 0x1FF) * 8)) & ((1 << 20) - 8);
            m.read_cached(addr, 8)
        })
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(1));
    let mut l1 = Cache::new(CacheConfig::new(32 * 1024, 8, 3));
    let mut i = 0u64;
    g.bench_function("access_strided", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let addr = (i * 64) & 0xF_FFFF;
            if !l1.access(addr, false) {
                l1.fill(addr, false);
            }
        })
    });
    g.finish();
}

fn bench_tage(c: &mut Criterion) {
    let mut g = c.benchmark_group("tage_scl");
    g.throughput(Throughput::Elements(1));
    let mut p = Predictor::new(PredictorKind::TageScl);
    let mut i = 0u64;
    g.bench_function("predict_train", |b| {
        b.iter(|| {
            i += 1;
            let truth = i.is_multiple_of(3);
            let pred = p.predict(0x1000 + (i % 64) * 4, truth);
            p.train(0x1000 + (i % 64) * 4, truth, &pred);
        })
    });
    g.finish();
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut g = c.benchmark_group("hierarchy");
    g.throughput(Throughput::Elements(1));
    let mut h = Hierarchy::new(HierarchyConfig::micro21());
    let mut addr = 0u64;
    g.bench_function("load_stream", |b| {
        b.iter(|| {
            addr = addr.wrapping_add(64) & 0xFF_FFFF;
            h.access(addr, AccessKind::Load, addr)
        })
    });
    g.finish();
}

fn bench_core(c: &mut Criterion) {
    let mut g = c.benchmark_group("core");
    g.throughput(Throughput::Elements(10_000));
    g.sample_size(10);
    g.bench_function("alu_loop_10k_instrs", |b| {
        b.iter(|| {
            let mut a = Asm::new(0x1000);
            let top = a.label();
            a.li(T0, 2_000);
            a.bind(top).unwrap();
            a.addi(S0, S0, 1);
            a.addi(S1, S1, 1);
            a.addi(S2, S2, 1);
            a.addi(T0, T0, -1);
            a.bne(T0, X0, top);
            a.halt();
            let m = Machine::new(a.finish().unwrap(), SpecMemory::new());
            let mut core = Core::new(
                CoreConfig::micro21(),
                m,
                Hierarchy::new(HierarchyConfig::micro21()),
            );
            core.run(&mut NoPfm, u64::MAX, 10_000_000).unwrap();
            core.stats().retired
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sparse_mem,
    bench_cache,
    bench_tage,
    bench_hierarchy,
    bench_core
);
criterion_main!(benches);
