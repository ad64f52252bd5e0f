//! Determinism contract of the sharded ingestion pipeline: for every
//! thread count, [`ShardedEstimator`] must be indistinguishable from a
//! sequential pass — the estimate, the tuple accounting, *and* the
//! snapshot bytes. This is the property that lets `--threads N` replace
//! `--threads 1` in any deployment, checkpoints included.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use implicate::datagen::Zipf;
use implicate::{EstimatorConfig, Fringe, ImplicationConditions, ShardedEstimator};

/// 100k-pair zipf workload: skewed sources over a skewed destination
/// pool, with enough repeat traffic to exercise multiplicity tracking,
/// fringe promotion, and support certification together.
fn zipf_stream(n: usize, seed: u64) -> Vec<([u64; 1], [u64; 1])> {
    let sources = Zipf::new(20_000, 1.2);
    let dests = Zipf::new(500, 1.5);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let a = sources.sample(&mut rng);
            // Mostly loyal: a source's home destination is a function of
            // the source; one in six updates strays to a hot destination.
            let b = if rng.gen::<f64>() < 1.0 / 6.0 {
                dests.sample(&mut rng)
            } else {
                a % 977
            };
            ([a], [b])
        })
        .collect()
}

fn configs() -> Vec<EstimatorConfig> {
    let one_to_c = ImplicationConditions::one_to_c(3, 0.8, 2);
    let strict = ImplicationConditions::strict_one_to_one(1);
    vec![
        EstimatorConfig::new(one_to_c).seed(42),
        EstimatorConfig::new(strict).bitmaps(32).seed(7),
        EstimatorConfig::new(one_to_c)
            .bitmaps(16)
            .fringe(Fringe::Unbounded)
            .seed(9),
    ]
}

#[test]
fn sharded_ingestion_is_bit_identical_for_every_thread_count() {
    let stream = zipf_stream(100_000, 0xdead);
    for config in configs() {
        let mut seq = config.build();
        for (a, b) in &stream {
            seq.update(a, b);
        }
        let (seq_estimate, seq_bytes) = (seq.estimate_now(), seq.to_bytes());

        for threads in [1usize, 2, 4, 8] {
            let mut sharded = ShardedEstimator::new(config.build(), threads);
            for (a, b) in &stream {
                sharded.update(a, b);
            }
            let par = sharded.finish();
            assert_eq!(
                par.estimate_now(),
                seq_estimate,
                "estimate diverged at {threads} threads ({config:?})"
            );
            assert_eq!(
                par.tuples_seen(),
                seq.tuples_seen(),
                "tuple count diverged at {threads} threads"
            );
            assert_eq!(
                par.to_bytes(),
                seq_bytes,
                "snapshot bytes diverged at {threads} threads ({config:?})"
            );
        }
    }
}

/// Routes `stream` through a sharded pipeline pre-hashed and split into
/// the given batch sizes (the columnar spine's shape: hash once, ship
/// whole batches), with whatever the splits left over riding one final
/// batch, and returns the final snapshot bytes.
fn sharded_bytes(
    config: &EstimatorConfig,
    stream: &[([u64; 1], [u64; 1])],
    splits: &[usize],
    threads: usize,
) -> Vec<u8> {
    let mut sharded = ShardedEstimator::new(config.build(), threads);
    let hasher = sharded.pair_hasher();
    let mut hashed = Vec::new();
    let mut at = 0usize;
    for &want in splits {
        let take = want.min(stream.len() - at);
        hashed.clear();
        hashed.extend(
            stream[at..at + take]
                .iter()
                .map(|([a], [b])| hasher.hash_pair(&[*a], &[*b])),
        );
        sharded.update_hashed_batch(&hashed);
        at += take;
    }
    hashed.clear();
    hashed.extend(
        stream[at..]
            .iter()
            .map(|([a], [b])| hasher.hash_pair(&[*a], &[*b])),
    );
    sharded.update_hashed_batch(&hashed);
    sharded.finish().to_bytes().to_vec()
}

#[test]
fn large_batch_update_is_bit_identical_to_per_row() {
    // Batches larger than anything a sharded lane ships (1024 rows), up
    // to one call over the whole stream, must all match the per-row loop
    // bit for bit.
    let stream = zipf_stream(30_000, 0x9e37);
    let config = EstimatorConfig::new(ImplicationConditions::one_to_c(2, 0.9, 2)).seed(7);

    let mut seq = config.build();
    for (a, b) in &stream {
        seq.update(a, b);
    }
    let seq_bytes = seq.to_bytes().to_vec();

    for chunk in [1024usize, 2048, 4096, 30_000] {
        let mut batched = config.build();
        let hashed: Vec<(u64, u64)> = stream
            .iter()
            .map(|([a], [b])| batched.hash_pair(&[*a], &[*b]))
            .collect();
        for part in hashed.chunks(chunk) {
            batched.update_hashed_batch(part);
        }
        assert_eq!(
            batched.to_bytes().to_vec(),
            seq_bytes,
            "batch chunk {chunk} diverged from the per-row loop"
        );
    }
}

#[test]
fn edge_batch_sizes_are_bit_identical_too() {
    // Empty batches (a no-op ship), single-pair batches, and one batch
    // larger than a whole lane's forward queue can absorb (LANE_DEPTH ×
    // the router's internal buffer — forcing backpressure and buffer
    // recycling mid-batch) must all reduce to the same per-bitmap
    // routed subsequences.
    let stream = zipf_stream(30_000, 0xfeed);
    let config = EstimatorConfig::new(ImplicationConditions::one_to_c(2, 0.9, 2)).seed(21);
    let mut seq = config.build();
    for (a, b) in &stream {
        seq.update(a, b);
    }
    let seq_bytes = seq.to_bytes().to_vec();

    let edge_splits: [&[usize]; 3] = [&[0], &[1, 0, 1, 1], &[17_000, 0, 9_001]];
    for threads in [1usize, 3, 8] {
        for splits in edge_splits {
            assert_eq!(
                sharded_bytes(&config, &stream, splits, threads),
                seq_bytes,
                "splits {splits:?} diverged at {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any batch partitioning of any stream, at any thread count, is
    /// unobservable: the lane handoff and the router's buffering never
    /// leak into the final snapshot bytes.
    #[test]
    fn any_batching_any_thread_count_is_bit_identical(
        splits in proptest::collection::vec(0usize..2_000, 1..12),
        threads in 1usize..=6,
        seed in 0u64..1_000,
    ) {
        let stream = zipf_stream(12_000, seed);
        let config =
            EstimatorConfig::new(ImplicationConditions::one_to_c(2, 0.9, 2)).seed(seed ^ 0xab);
        let mut seq = config.build();
        for (a, b) in &stream {
            seq.update(a, b);
        }
        prop_assert_eq!(
            sharded_bytes(&config, &stream, &splits, threads),
            seq.to_bytes().to_vec(),
            "splits {:?} diverged at {} threads",
            splits,
            threads
        );
    }
}

#[test]
fn batched_entry_point_is_equally_deterministic() {
    let stream = zipf_stream(40_000, 0xbeef);
    let config = EstimatorConfig::new(ImplicationConditions::one_to_c(2, 0.9, 2)).seed(3);

    let mut seq = config.build();
    let pairs: Vec<(u64, u64)> = stream.iter().map(|(a, b)| seq.hash_pair(a, b)).collect();
    seq.update_hashed_batch(&pairs);
    let seq_bytes = seq.to_bytes();

    for threads in [2usize, 8] {
        let mut sharded = ShardedEstimator::new(config.build(), threads);
        for chunk in pairs.chunks(777) {
            sharded.update_hashed_batch(chunk);
        }
        assert_eq!(
            sharded.finish().to_bytes(),
            seq_bytes,
            "update_hashed_batch diverged at {threads} threads"
        );
    }
}
