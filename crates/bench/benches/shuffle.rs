//! Criterion micro-benchmarks of the shuffle kernels: partitioning and
//! record wire codecs. The planner's model has its own bench
//! (`benches/plan.rs`).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use faaspipe_methcomp::synth::Synthesizer;
use faaspipe_methcomp::MethRecord;
use faaspipe_shuffle::{RangePartitioner, SortRecord};

fn bench_partitioner(c: &mut Criterion) {
    let keys: Vec<u64> = (0..100_000u64)
        .map(|i| (i * 2_654_435_761) % 1_000_000)
        .collect();
    c.bench_function("partitioner/from_sample_100k_x64", |b| {
        b.iter(|| RangePartitioner::from_sample(black_box(keys.clone()), 64))
    });
    let p = RangePartitioner::from_sample(keys.clone(), 64);
    let mut g = c.benchmark_group("partitioner");
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("route_100k", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for k in &keys {
                acc += p.part(black_box(k));
            }
            acc
        })
    });
    g.finish();
}

fn bench_record_wire(c: &mut Criterion) {
    let ds = Synthesizer::new(88).generate_records(50_000);
    let bytes = SortRecord::write_all(&ds.records);
    let mut g = c.benchmark_group("record");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("write_all_50k", |b| {
        b.iter(|| <MethRecord as SortRecord>::write_all(black_box(&ds.records)))
    });
    g.bench_function("read_all_50k", |b| {
        b.iter(|| <MethRecord as SortRecord>::read_all(black_box(&bytes)).expect("decode"))
    });
    g.finish();
}

criterion_group!(benches, bench_partitioner, bench_record_wire);
criterion_main!(benches);
