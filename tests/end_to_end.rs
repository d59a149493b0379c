//! End-to-end integration tests through the public facade: synthetic data
//! -> FASTQ files on disk -> parse -> pipeline -> partition -> FASTQ out.

use metaprep::core::{
    partition_reads, partition_top_n, write_multi_partition, write_multi_partition_streamed,
    write_partitions, write_partitions_streamed, Pipeline, PipelineConfig,
};
use metaprep::io::{parse_fastq_path, write_fastq_path, ReadStore};
use metaprep::synth::{simulate_community, CommunityProfile};

fn small_community() -> metaprep::synth::SimulatedData {
    let mut p = CommunityProfile::quickstart();
    p.read_pairs = 600;
    simulate_community(&p, 123)
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("metaprep_it_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn fastq_file_roundtrip_preserves_pipeline_result() {
    let data = small_community();
    let dir = tmpdir("roundtrip");
    let path = dir.join("reads.fastq");
    write_fastq_path(&path, &data.reads).unwrap();
    let back = parse_fastq_path(&path, true).unwrap();
    assert_eq!(back.len(), data.reads.len());
    assert_eq!(back.num_fragments(), data.reads.num_fragments());

    let cfg = PipelineConfig::builder().k(21).m(6).tasks(2).build();
    let a = Pipeline::new(cfg.clone()).run_reads(&data.reads).unwrap();
    let b = Pipeline::new(cfg).run_reads(&back).unwrap();
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.components.components, b.components.components);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn partition_outputs_reparse_and_cover_input() {
    let data = small_community();
    let cfg = PipelineConfig::builder()
        .k(21)
        .m(6)
        .tasks(2)
        .threads(2)
        .build();
    let res = Pipeline::new(cfg).run_reads(&data.reads).unwrap();
    let parts = partition_reads(&data.reads, &res.labels, res.components.largest_root);

    // Partition is a cover: every read lands on exactly one side.
    assert_eq!(parts.lc.len() + parts.other.len(), data.reads.len());
    assert_eq!(
        parts.lc.num_fragments() + parts.other.num_fragments(),
        data.reads.num_fragments()
    );

    let dir = tmpdir("partition");
    write_partitions(&dir, &parts).unwrap();
    let lc = parse_fastq_path(dir.join("lc.fastq"), true).unwrap();
    let other = parse_fastq_path(dir.join("other.fastq"), true).unwrap();
    assert_eq!(lc.len(), parts.lc.len());
    assert_eq!(other.len(), parts.other.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pipeline_is_deterministic() {
    let data = small_community();
    let cfg = PipelineConfig::builder()
        .k(21)
        .m(6)
        .tasks(3)
        .threads(2)
        .passes(2)
        .build();
    let a = Pipeline::new(cfg.clone()).run_reads(&data.reads).unwrap();
    let b = Pipeline::new(cfg).run_reads(&data.reads).unwrap();
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.tuples_total, b.tuples_total);
}

#[test]
fn task_count_does_not_change_components() {
    let data = small_community();
    let mut reference: Option<usize> = None;
    for tasks in [1usize, 2, 5, 8] {
        let cfg = PipelineConfig::builder().k(21).m(6).tasks(tasks).build();
        let res = Pipeline::new(cfg).run_reads(&data.reads).unwrap();
        let c = res.components.components;
        match reference {
            None => reference = Some(c),
            Some(want) => assert_eq!(c, want, "tasks={tasks}"),
        }
    }
}

#[test]
fn filter_never_increases_connectivity() {
    let data = small_community();
    let run = |kf: Option<(u32, u32)>| {
        let mut b = PipelineConfig::builder().k(21).m(6).tasks(2);
        if let Some((lo, hi)) = kf {
            b = b.kf_filter(lo, hi);
        }
        Pipeline::new(b.build()).run_reads(&data.reads).unwrap()
    };
    let unfiltered = run(None);
    let filtered = run(Some((2, 20)));
    // Filtering only removes edges: components can only multiply and the
    // largest can only shrink.
    assert!(filtered.components.components >= unfiltered.components.components);
    assert!(filtered.components.largest <= unfiltered.components.largest);
}

#[test]
fn mates_always_share_a_component() {
    // Both mates carry one fragment id, so the output labeling cannot
    // split a pair by construction; verify the invariant through the API.
    let data = small_community();
    let cfg = PipelineConfig::builder().k(21).m(6).tasks(2).build();
    let res = Pipeline::new(cfg).run_reads(&data.reads).unwrap();
    assert_eq!(res.labels.len(), data.reads.num_fragments() as usize);
    for i in 0..data.reads.len() {
        let f = data.reads.frag_id(i);
        assert!((f as usize) < res.labels.len());
    }
}

#[test]
fn unpaired_reads_work_too() {
    let mut store = ReadStore::new();
    let data = small_community();
    for (seq, _) in data.reads.iter().take(300) {
        store.push_single(seq);
    }
    let cfg = PipelineConfig::builder().k(21).m(6).tasks(2).build();
    let res = Pipeline::new(cfg).run_reads(&store).unwrap();
    assert_eq!(res.labels.len(), 300);
}

#[test]
fn streamed_partition_output_is_byte_identical_to_the_in_memory_writers() {
    // The file path end to end — streaming IndexCreate, per-pass chunk
    // reads, streamed writer; no `ReadStore` anywhere — against the
    // in-memory output API over a parse of the same file, for the LC/other
    // split and the top-2 split.
    let data = small_community();
    let dir = tmpdir("streamed_output");
    let path = dir.join("reads.fastq");
    write_fastq_path(&path, &data.reads).unwrap();
    let same = |want: &std::path::Path, got: &std::path::Path, names: &[&str]| {
        for name in names {
            let (w, g) = (
                std::fs::read(want.join(name)),
                std::fs::read(got.join(name)),
            );
            assert!(w.unwrap() == g.unwrap(), "{name} differs");
        }
    };
    for paired in [true, false] {
        let reads = parse_fastq_path(&path, paired).unwrap();
        for tasks in [1, 3] {
            let cfg = PipelineConfig::builder().k(21).m(6).tasks(tasks).build();
            let res = Pipeline::new(cfg).run_fastq_file(&path, paired).unwrap();
            let root = res.components.largest_root;
            let (want, got) = (dir.join("want"), dir.join("got"));

            let parts = partition_reads(&reads, &res.labels, root);
            write_partitions(&want, &parts).unwrap();
            let n = write_partitions_streamed(&got, &path, paired, &res.labels, root).unwrap();
            assert_eq!(n, [parts.lc.len() as u64, parts.other.len() as u64]);
            same(&want, &got, &["lc.fastq", "other.fastq"]);

            let multi = partition_top_n(&reads, &res.labels, 2, 2);
            assert_eq!(multi.buckets.len(), 2, "the community has >= 2 components");
            write_multi_partition(&want, &multi).unwrap();
            let n = write_multi_partition_streamed(&got, &path, paired, &res.labels, 2, 2);
            assert_eq!(n.unwrap().len(), 3);
            same(&want, &got, &["comp_0.fastq", "comp_1.fastq", "rest.fastq"]);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
