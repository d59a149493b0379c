//! One module per paper table/figure. Each exposes `run(scale)`.

pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod index_create;
pub mod kmergen;
pub mod loom_dpor;
pub mod presolve;
pub mod quality;
pub mod sort_throughput;
pub mod sparse_merge;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8_9;
