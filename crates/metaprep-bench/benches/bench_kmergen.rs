//! Canonical k-mer generation at k = 27 (64-bit path) and k = 63 (128-bit
//! path). The 4-lane form of §3.2.1 is the owned-k-mer kernel, timed
//! against its scalar form by `exp_kmergen`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use metaprep_kmer::{for_each_canonical_kmer, Kmer128, Kmer64};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn reads(n: usize, len: usize) -> Vec<Vec<u8>> {
    let mut rng = SmallRng::seed_from_u64(1);
    (0..n)
        .map(|_| (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect())
        .collect()
}

fn bench(c: &mut Criterion) {
    let data = reads(2000, 150);
    let bases: u64 = data.iter().map(|r| r.len() as u64).sum();

    let mut g = c.benchmark_group("kmergen");
    g.throughput(Throughput::Bytes(bases));
    g.sample_size(10);

    g.bench_function("scalar_k27", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for r in &data {
                for_each_canonical_kmer::<Kmer64>(r, 27, |v, _| acc ^= v);
            }
            black_box(acc)
        })
    });
    g.bench_function("scalar_k63", |b| {
        b.iter(|| {
            let mut acc = 0u128;
            for r in &data {
                for_each_canonical_kmer::<Kmer128>(r, 63, |v, _| acc ^= v);
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
