//! Runtime-dispatched SIMD kernels for the KmerGen / FASTQ-scan hot path.
//!
//! The paper's single-node throughput story (§3.2.1) rests on KmerGen and
//! record scanning keeping pace with I/O. This module provides the two
//! byte-level kernels those stages spend their time in, each with an AVX2
//! (x86_64), NEON (aarch64) and scalar implementation selected **once** at
//! startup:
//!
//! * [`encode_classify`] — 2-bit base encoding *and* validity
//!   classification of a whole read slice in one pass. The output code
//!   buffer is byte-identical to mapping
//!   [`classify_base`](crate::alphabet::classify_base) over the input:
//!   `0..=3` for `ACGTacgt`, [`INVALID_CODE`](crate::alphabet::INVALID_CODE)
//!   for everything else (`N`, ambiguity codes, junk). Canonical k-mer
//!   generation then rolls over the packed lanes without any per-byte
//!   table lookups or `Option` branching
//!   ([`for_each_canonical_kmer`](crate::enumerate::for_each_canonical_kmer)).
//! * [`find_byte`] — memchr-style first-occurrence scan, the primitive
//!   under `metaprep-io`'s `find_record_start` / `count_record_starts`
//!   and the `StreamChunker` window-probe path.
//!
//! # Dispatch
//!
//! [`active`] resolves the backend on first use:
//!
//! 1. the `METAPREP_SIMD` environment variable
//!    (`auto` / `avx2` / `neon` / `scalar`) — the only override, and the
//!    knob the scalar-forced CI job and the differential tests use;
//! 2. otherwise runtime feature detection (AVX2 on x86_64, NEON on
//!    aarch64), falling back to scalar.
//!
//! Requesting a backend the running CPU cannot execute is a hard error,
//! not a silent downgrade: the knob exists to *pin* a path under test,
//! and degrading would invalidate exactly the run that set it.
//!
//! # Testing strategy
//!
//! Every kernel has a `*_with(backend, ..)` form so one process can run
//! all backends the host supports ([`available_backends`]) against the
//! scalar reference (it panics on a backend the CPU cannot execute); the
//! property tests in `tests/simd_equivalence.rs` drive mixed-case bases,
//! ambiguity codes and arbitrary junk bytes through each pair. The dispatched forms are what the pipeline calls.

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;
mod scalar;

/// Which kernel family executes the hot-path scans.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// 256-bit AVX2 kernels (x86_64 with runtime `avx2` support).
    Avx2,
    /// 128-bit NEON kernels (aarch64).
    Neon,
    /// Portable scalar reference — always available, and the oracle every
    /// vector kernel is property-tested against.
    Scalar,
}

impl Backend {
    /// Stable lowercase name (used in `BENCH_kmergen.json` and logs).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
            Backend::Scalar => "scalar",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

static ACTIVE: OnceLock<Backend> = OnceLock::new();

/// Best backend the running CPU supports.
fn detect() -> Backend {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return Backend::Avx2;
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        return Backend::Neon;
    }
    Backend::Scalar
}

/// True if `b`'s kernels can execute on the running CPU.
fn supported(b: Backend) -> bool {
    match b {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => std::is_x86_feature_detected!("avx2"),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
        Backend::Scalar => true,
        #[allow(unreachable_patterns)] // Avx2/Neon on the foreign arch
        _ => false,
    }
}

/// Resolve `METAPREP_SIMD` (or fall back to detection).
///
/// # Panics
/// Panics on an unknown value or on a backend the CPU cannot execute —
/// the override is a testing knob, and degrading silently would
/// invalidate the run that set it.
fn from_env_or_detect() -> Backend {
    let Ok(raw) = std::env::var("METAPREP_SIMD") else {
        return detect();
    };
    let want = match raw.as_str() {
        "" | "auto" => return detect(),
        "avx2" => Backend::Avx2,
        "neon" => Backend::Neon,
        "scalar" => Backend::Scalar,
        other => panic!("METAPREP_SIMD={other:?}: expected auto, avx2, neon or scalar"),
    };
    assert!(
        supported(want),
        "METAPREP_SIMD={raw}: backend not supported on this CPU/architecture"
    );
    want
}

/// The backend every dispatched kernel in this process uses. Resolved on
/// first call and never changes afterwards (the kernels are selected once
/// at startup, not per call site).
#[inline]
pub fn active() -> Backend {
    *ACTIVE.get_or_init(from_env_or_detect)
}

/// Backends executable on this host, best first, always ending in
/// `Scalar`. Differential tests iterate this to cover every arm CI's
/// hardware can reach.
pub fn available_backends() -> Vec<Backend> {
    let best = detect();
    if best == Backend::Scalar {
        vec![Backend::Scalar]
    } else {
        vec![best, Backend::Scalar]
    }
}

/// Fill `out` with the 2-bit code of every byte of `seq`
/// (`0..=3` for `ACGTacgt`, [`INVALID_CODE`](crate::alphabet::INVALID_CODE)
/// otherwise), using the [`active`] backend. `out` is cleared and resized
/// to `seq.len()`; its capacity is reused across calls.
#[inline]
pub fn encode_classify(seq: &[u8], out: &mut Vec<u8>) {
    // SAFETY: `active()` only holds a backend `supported` accepted.
    unsafe { encode_classify_on(active(), seq, out) }
}

/// [`encode_classify`] with an explicit backend (differential testing).
pub fn encode_classify_with(backend: Backend, seq: &[u8], out: &mut Vec<u8>) {
    assert_supported(backend);
    // SAFETY: `assert_supported` just checked the CPU executes `backend`.
    unsafe { encode_classify_on(backend, seq, out) }
}

/// # Safety
/// The running CPU must execute `backend`'s kernels ([`supported`]).
// SAFETY: `unsafe fn` only for the contract above — `active()` and
// `assert_supported` establish it before every call.
unsafe fn encode_classify_on(backend: Backend, seq: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.resize(seq.len(), 0);
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller guarantees the CPU executes AVX2 code.
        Backend::Avx2 => unsafe { avx2::encode_classify(seq, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: the caller guarantees the CPU executes NEON code.
        Backend::Neon => unsafe { neon::encode_classify(seq, out) },
        _ => scalar::encode_classify(seq, out),
    }
}

/// Index of the first `needle` in `data` (memchr), using the [`active`]
/// backend. Matches `data.iter().position(|&b| b == needle)` exactly.
#[inline]
pub fn find_byte(data: &[u8], needle: u8) -> Option<usize> {
    // SAFETY: `active()` only holds a backend `supported` accepted.
    unsafe { find_byte_on(active(), data, needle) }
}

/// [`find_byte`] with an explicit backend (differential testing).
#[inline]
pub fn find_byte_with(backend: Backend, data: &[u8], needle: u8) -> Option<usize> {
    assert_supported(backend);
    // SAFETY: `assert_supported` just checked the CPU executes `backend`.
    unsafe { find_byte_on(backend, data, needle) }
}

/// # Safety
/// The running CPU must execute `backend`'s kernels ([`supported`]).
#[inline]
// SAFETY: `unsafe fn` only for the contract above — `active()` and
// `assert_supported` establish it before every call.
unsafe fn find_byte_on(backend: Backend, data: &[u8], needle: u8) -> Option<usize> {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller guarantees the CPU executes AVX2 code.
        Backend::Avx2 => unsafe { avx2::find_byte(data, needle) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: the caller guarantees the CPU executes NEON code.
        Backend::Neon => unsafe { neon::find_byte(data, needle) },
        _ => scalar::find_byte(data, needle),
    }
}

/// Panic unless the running CPU executes `backend`'s kernels: a `*_with`
/// call must run the family it names, never silently another.
fn assert_supported(backend: Backend) {
    assert!(
        supported(backend),
        "simd: {backend} not supported on this CPU"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::classify_base;

    #[test]
    fn available_backends_ends_in_scalar() {
        let b = available_backends();
        assert_eq!(*b.last().unwrap(), Backend::Scalar);
        assert!(b.contains(&detect()));
    }

    #[test]
    fn active_is_stable() {
        assert_eq!(active(), active());
    }

    #[test]
    #[should_panic(expected = "not supported on this CPU")]
    fn with_forms_reject_a_backend_the_cpu_cannot_run() {
        let foreign = if cfg!(target_arch = "aarch64") {
            Backend::Avx2
        } else {
            Backend::Neon
        };
        find_byte_with(foreign, b"x", b'x');
    }

    #[test]
    fn encode_classify_matches_table_on_all_backends() {
        let seq: Vec<u8> = (0u8..=255).collect();
        let want: Vec<u8> = seq.iter().map(|&b| classify_base(b)).collect();
        for backend in available_backends() {
            let mut out = Vec::new();
            encode_classify_with(backend, &seq, &mut out);
            assert_eq!(out, want, "backend={backend}");
        }
    }

    #[test]
    fn encode_classify_long_mixed_case() {
        // Longer than one vector register on every backend, with the
        // tail exercising the non-vector remainder path.
        let seq: Vec<u8> = b"AcGtNnacgtACGT.RYWSKMBDHVU@+\n\t x"
            .iter()
            .cycle()
            .take(32 * 7 + 13)
            .copied()
            .collect();
        let want: Vec<u8> = seq.iter().map(|&b| classify_base(b)).collect();
        for backend in available_backends() {
            let mut out = Vec::new();
            encode_classify_with(backend, &seq, &mut out);
            assert_eq!(out, want, "backend={backend}");
        }
    }

    #[test]
    fn encode_classify_reuses_capacity() {
        let mut out = Vec::new();
        encode_classify(&[b'A'; 100], &mut out);
        let cap = out.capacity();
        encode_classify(&[b'C'; 64], &mut out);
        assert_eq!(out.len(), 64);
        assert_eq!(out.capacity(), cap, "buffer must be recycled");
    }

    #[test]
    fn find_byte_matches_position_on_all_backends() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        for backend in available_backends() {
            for needle in [0u8, 1, 13, 250, 251, 255, b'\n'] {
                let want = data.iter().position(|&b| b == needle);
                let got = find_byte_with(backend, &data, needle);
                assert_eq!(got, want, "backend={backend} needle={needle}");
            }
            assert_eq!(find_byte_with(backend, &[], b'\n'), None);
        }
    }

    #[test]
    fn find_byte_hits_every_offset() {
        // A hit in each position of a 100-byte buffer: covers vector-block
        // hits, cross-block hits and tail hits on every backend.
        for backend in available_backends() {
            for at in 0..100usize {
                let mut data = vec![b'x'; 100];
                data[at] = b'\n';
                assert_eq!(
                    find_byte_with(backend, &data, b'\n'),
                    Some(at),
                    "backend={backend} at={at}"
                );
            }
        }
    }
}
