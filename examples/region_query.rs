//! Random access into compressed methylation data: store an *indexed*
//! METHCOMP archive in the object store, then answer a region query by
//! fetching only the index footer and the touched blocks with byte-range
//! GETs — no full download, no full decode.
//!
//! ```text
//! cargo run --release --example region_query
//! ```

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use faaspipe::des::Sim;
use faaspipe::methcomp::index::{self, DEFAULT_BLOCK_RECORDS};
use faaspipe::methcomp::synth::Synthesizer;
use faaspipe::methcomp::{codec, CHROM_NAMES};
use faaspipe::store::{ObjectStore, StoreConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build a sorted dataset and both archive flavours.
    let dataset = Synthesizer::new(13).generate_records(120_000);
    let plain = codec::compress(&dataset);
    let indexed = index::compress_indexed(&dataset, DEFAULT_BLOCK_RECORDS)?;
    println!(
        "{} records: {} B text, {} B plain archive, {} B indexed archive",
        dataset.len(),
        dataset.to_text().len(),
        plain.len(),
        indexed.len()
    );

    // Stage the indexed archive in the simulated store.
    let mut sim = Sim::new();
    let store = ObjectStore::install(&mut sim, StoreConfig::default());
    store.create_bucket("data")?;
    let archive_len = indexed.len() as u64;
    store.put_untimed("data", "sample.mcx", Bytes::from(indexed.clone()))?;

    // A "query function": fetch the index tail, then range-read only the
    // blocks overlapping a 200 kb window on chr7.
    let chrom = 6u8; // chr7
    let (lo, hi) = (200_000u64, 400_000u64);
    let stats: Arc<Mutex<(usize, u64, f64)>> = Arc::new(Mutex::new((0, 0, 0.0)));
    let stats2 = Arc::clone(&stats);
    let store2 = Arc::clone(&store);
    sim.spawn("query-fn", move |mut ctx| async move {
        let ctx = &mut ctx;
        let client = store2.connect(ctx, "query").await;
        let t0 = ctx.now();
        // Footer: last 64 KiB is plenty for the index of this archive.
        let tail_len = (64 * 1024).min(archive_len);
        let tail_off = archive_len - tail_len;
        let tail = client
            .get_range(ctx, "data", "sample.mcx", tail_off, tail_len)
            .await
            .expect("index tail");
        // Rebuild a sparse archive buffer: zeros except the tail, which is
        // all read_index touches.
        let mut sparse = vec![0u8; archive_len as usize];
        sparse[..4].copy_from_slice(b"MX01");
        sparse[tail_off as usize..].copy_from_slice(&tail);
        let idx = index::read_index(&sparse).expect("index parses from the tail");
        let mut fetched = 0u64;
        let mut hits = Vec::new();
        for b in &idx.blocks {
            if b.chrom != chrom || b.max_start < lo || b.min_start >= hi {
                continue;
            }
            let block = client
                .get_range(ctx, "data", "sample.mcx", b.offset, b.len)
                .await
                .expect("block");
            fetched += b.len;
            let ds = codec::decompress(&block).expect("block decodes");
            hits.extend(
                ds.records
                    .into_iter()
                    .filter(|r| r.start >= lo && r.start < hi),
            );
        }
        let took = ctx.now().saturating_duration_since(t0);
        *stats2.lock() = (hits.len(), fetched + tail_len, took.as_secs_f64());
    });
    sim.run()?;
    let (hits, bytes, secs) = *stats.lock();
    let expect = dataset
        .records
        .iter()
        .filter(|r| r.chrom == chrom && r.start >= lo && r.start < hi)
        .count();
    assert_eq!(hits, expect, "range-read query must match a full scan");
    println!(
        "query {}:{}..{} -> {} records, fetching {} of {} archive bytes in {:.3}s virtual",
        CHROM_NAMES[chrom as usize], lo, hi, hits, bytes, archive_len, secs
    );
    println!(
        "({}x less data moved than downloading the whole archive)",
        archive_len / bytes.max(1)
    );
    Ok(())
}
