//! Criterion micro-benchmarks of the compression kernels, whose measured
//! throughputs ground the simulator's `WorkModel` calibration.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use faaspipe_codec::{gzipish, huffman, range, rle, varint};
use faaspipe_methcomp::codec as mc;
use faaspipe_methcomp::synth::Synthesizer;

fn bed_text(records: usize) -> (faaspipe_methcomp::Dataset, String) {
    let ds = Synthesizer::new(77).generate_records(records);
    let text = ds.to_text();
    (ds, text)
}

fn bench_gzipish(c: &mut Criterion) {
    let (_, text) = bed_text(20_000);
    let packed = gzipish::compress(text.as_bytes());
    let mut g = c.benchmark_group("gzipish");
    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("compress_bed_1mb", |b| {
        b.iter(|| gzipish::compress(black_box(text.as_bytes())))
    });
    g.bench_function("decompress_bed_1mb", |b| {
        b.iter(|| gzipish::decompress(black_box(&packed)).expect("round trip"))
    });
    g.finish();
}

fn bench_methcomp(c: &mut Criterion) {
    let (ds, text) = bed_text(20_000);
    let packed = mc::compress(&ds);
    let mut g = c.benchmark_group("methcomp");
    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("compress_bed_1mb", |b| {
        b.iter(|| mc::compress(black_box(&ds)))
    });
    g.bench_function("decompress_bed_1mb", |b| {
        b.iter(|| mc::decompress(black_box(&packed)).expect("round trip"))
    });
    g.finish();
}

fn bench_huffman(c: &mut Criterion) {
    let freqs: Vec<u64> = (0..286u64)
        .map(|i| 1 + (i * 2_654_435_761) % 10_000)
        .collect();
    c.bench_function("huffman/build_lengths_286", |b| {
        b.iter(|| huffman::build_lengths(black_box(&freqs), 15))
    });
}

fn bench_range_coder(c: &mut Criterion) {
    let values: Vec<u64> = (0..10_000u64).map(|i| (i * 48_271) % 1_000).collect();
    let mut g = c.benchmark_group("range");
    g.throughput(Throughput::Elements(values.len() as u64));
    g.bench_function("uint_model_encode_10k", |b| {
        b.iter(|| {
            let mut enc = range::RangeEncoder::new();
            let mut m = range::UIntModel::new();
            for &v in &values {
                m.encode(&mut enc, black_box(v));
            }
            enc.finish()
        })
    });
    g.finish();
}

fn bench_varint(c: &mut Criterion) {
    let values: Vec<u64> = (0..10_000u64).map(|i| i * i).collect();
    c.bench_function("varint/write_read_10k", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(values.len() * 5);
            for &v in &values {
                varint::write_u64(&mut buf, v);
            }
            let mut pos = 0;
            let mut sum = 0u64;
            while pos < buf.len() {
                let (v, used) = varint::read_u64(&buf[pos..]).expect("valid");
                sum = sum.wrapping_add(v);
                pos += used;
            }
            sum
        })
    });
}

fn bench_rle(c: &mut Criterion) {
    let data: Vec<u8> = (0..100_000).map(|i| (i / 1000) as u8).collect();
    c.bench_function("rle/compress_100k_runs", |b| {
        b.iter(|| rle::compress(black_box(&data)))
    });
}

criterion_group!(
    benches,
    bench_gzipish,
    bench_methcomp,
    bench_huffman,
    bench_range_coder,
    bench_varint,
    bench_rle
);
criterion_main!(benches);
