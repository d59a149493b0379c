//! Extension experiment: component messages (dense or non-root pairs) vs dense arrays.

fn main() {
    let scale = metaprep_bench::scale_from_env();
    metaprep_bench::experiments::sparse_merge::run(scale);
}
