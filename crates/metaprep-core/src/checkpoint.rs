//! Pass-level checkpoint/restart for the cluster pipeline.
//!
//! A checkpoint is written at each *quiescent boundary* of a task's
//! timeline — after a KmerGen pass completes (all of its tuples are
//! folded into the concurrent union-find and no message is in flight
//! for this task) and after each merge round a receiver absorbs. At
//! those points the task's entire restartable state is:
//!
//! * which [`Boundary`] to resume at,
//! * the accumulated scalar counters ([`Progress`]),
//! * the **raw, uncompressed** union-find parent array.
//!
//! In memory that is a `TaskState`; `TaskState::checkpoint` and
//! `TaskState::restore` are the only writer and reader of a rank's file.
//!
//! Storing the raw parents (not the compressed component array) is what
//! makes a restart replay *byte-identical*: later path compression on a
//! restored tree walks exactly the pointers the crashed run would have
//! walked, so every subsequent find/split lands on the same labels.
//!
//! ## On-disk format (`rank{r}.ckpt`, little-endian)
//!
//! ```text
//! magic    [u8; 4] = "MPCK"
//! version  u32     = 2
//! rank     u32
//! resume   u8      (0 = Pass, 1 = MergeRound) + u32 index
//! tuples_emitted, peak_tuples,
//! presolve_dropped                       3 × u64
//! localcc  groups, filtered_groups, edges, union_edges,
//!          verify_iterations, uf.finds, uf.path_splits,
//!          uf.unions                     8 × u64
//! parents  u64 length + length × u32
//! checksum u64 (FNV-1a over every preceding byte)
//! ```
//!
//! Writes are atomic: the bytes go to `rank{r}.ckpt.tmp` in the same
//! directory and are renamed over the live file, so a crash *during a
//! checkpoint write* leaves the previous checkpoint intact.
//!
//! A rank restores only a checkpoint it wrote earlier in the same run;
//! files other runs left in the directory are never read, and this run's
//! writes overwrite them.

use crate::localcc::LocalCcStats;
use metaprep_cc::{ConcurrentDisjointSet, DisjointSet, UfOpStats};
use metaprep_dist::Boundary;
use metaprep_sort::{Keyed, PassBuffers};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File magic: identifies a METAPREP checkpoint.
pub const MAGIC: [u8; 4] = *b"MPCK";

/// Current format version. Bump on any layout change; [`Checkpoint::load`]
/// rejects files from other versions rather than misparsing them.
/// (v2 added the `presolve_dropped` counter.)
pub const VERSION: u32 = 2;

/// A task's running totals: what it carries from one boundary to the
/// next besides the forest, and what it reports when it finishes.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// Tuples emitted so far (accumulated across completed passes).
    pub tuples_emitted: u64,
    /// Peak per-pass tuple residency observed so far.
    pub peak_tuples: u64,
    /// K-mers dropped by the presolve filter so far. Checkpointed so the
    /// pipeline's `emitted + dropped == enumerated` conservation check
    /// holds across crash/replay.
    pub presolve_dropped: u64,
    /// LocalCC counters accumulated across completed passes.
    pub localcc: LocalCcStats,
}

/// One task's complete restartable state at a quiescent boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Task (MPI rank) the state belongs to.
    pub rank: u32,
    /// The first boundary whose work is NOT yet folded into `parents`:
    /// `Pass(s)` resumes at the top of KmerGen pass `s` (`s` may equal the
    /// pass count — all passes done, no merge round absorbed yet),
    /// `MergeRound(r)` at the top of merge round `r`.
    pub resume_at: Boundary,
    /// Running totals at that boundary.
    pub progress: Progress,
    /// RAW union-find parent array (uncompressed — see module docs).
    pub parents: Vec<u32>,
}

/// A task's union-find forest: concurrent while passes fold tuples in,
/// sequential once the merge tree (or CC-I/O) starts.
pub(crate) enum Forest {
    Concurrent(ConcurrentDisjointSet),
    Sequential(DisjointSet),
}

impl Forest {
    pub(crate) fn concurrent(&self) -> &ConcurrentDisjointSet {
        match self {
            Forest::Concurrent(ds) => ds,
            Forest::Sequential(_) => unreachable!("every pass precedes the first merge round"),
        }
    }

    pub(crate) fn into_sequential(self) -> DisjointSet {
        match self {
            Forest::Concurrent(ds) => ds.into_disjoint_set(),
            Forest::Sequential(ds) => ds,
        }
    }
}

/// What a task carries from one boundary to the next: exactly what a
/// [`Checkpoint`] holds, plus the pooled LocalSort buffers (destination,
/// bucket scratch and in-bucket sort workspaces are allocated on the first
/// pass and recycled by every later one).
pub(crate) struct TaskState<T: Keyed> {
    pub(crate) forest: Forest,
    pub(crate) progress: Progress,
    pub(crate) sort_bufs: PassBuffers<T>,
}

impl<T: Keyed + Default> TaskState<T> {
    /// The state of a task that has done nothing yet.
    pub(crate) fn fresh(fragments: usize) -> Self {
        Self {
            forest: Forest::Concurrent(ConcurrentDisjointSet::new(fragments)),
            progress: Progress::default(),
            sort_bufs: PassBuffers::new(),
        }
    }

    /// Reload the checkpoint `rank` wrote under `dir`: the state it holds
    /// and the boundary to resume at.
    pub(crate) fn restore(dir: &Path, rank: u32) -> Result<(Self, Boundary), CkptError> {
        let ck = Checkpoint::load(dir, rank)?;
        let forest = match ck.resume_at {
            Boundary::Pass(_) => {
                Forest::Concurrent(ConcurrentDisjointSet::from_parent_array(ck.parents))
            }
            Boundary::MergeRound(_) => {
                Forest::Sequential(DisjointSet::from_parent_array(ck.parents))
            }
        };
        let st = Self {
            forest,
            progress: ck.progress,
            sort_bufs: PassBuffers::new(),
        };
        Ok((st, ck.resume_at))
    }

    /// Persist the state under `dir` as the point `rank` resumes from at
    /// `resume_at`. The parents are stored RAW (no compression): restoring
    /// that exact tree is what makes a replay byte-identical.
    pub(crate) fn checkpoint(
        &self,
        dir: &Path,
        rank: u32,
        resume_at: Boundary,
    ) -> Result<(), CkptError> {
        let parents = match &self.forest {
            Forest::Concurrent(ds) => ds.parent_snapshot(),
            Forest::Sequential(ds) => ds.raw_parents().to_vec(),
        };
        Checkpoint {
            rank,
            resume_at,
            progress: self.progress,
            parents,
        }
        .store(dir)
    }
}

/// Why a checkpoint failed to load or store.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file exists but is not a valid checkpoint (bad magic, version,
    /// truncation, or checksum mismatch).
    Corrupt(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CkptError::Corrupt(s) => write!(f, "checkpoint corrupt: {s}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// FNV-1a over a byte slice — cheap, dependency-free integrity check.
/// This guards against truncation and bit rot, not adversaries.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(CkptError::Corrupt(format!(
                "truncated: wanted {n} bytes at offset {}, file has {}",
                self.pos,
                self.bytes.len()
            )));
        };
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        // EXPECT: take(4) returned exactly 4 bytes.
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        // EXPECT: take(8) returned exactly 8 bytes.
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Verify the envelope — length, trailing FNV-1a checksum, magic,
/// version — and return a cursor over what follows the version.
fn open_envelope(bytes: &[u8]) -> Result<Cursor<'_>, CkptError> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(CkptError::Corrupt(format!(
            "file too short ({} bytes)",
            bytes.len()
        )));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    // EXPECT: split_at(len - 8) yields an 8-byte tail.
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte checksum"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(CkptError::Corrupt(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    let mut c = Cursor {
        bytes: body,
        pos: 0,
    };
    let found = c.take(4)?;
    if found != MAGIC {
        return Err(CkptError::Corrupt(format!("bad magic {found:02x?}")));
    }
    let found = c.u32()?;
    if found != VERSION {
        return Err(CkptError::Corrupt(format!(
            "version {found} (this build reads {VERSION})"
        )));
    }
    Ok(c)
}

impl Checkpoint {
    /// Checkpoint file path for `rank` under `dir`.
    pub fn path_for(dir: &Path, rank: u32) -> PathBuf {
        dir.join(format!("rank{rank}.ckpt"))
    }

    /// Serialize to the on-disk byte layout (checksum included).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + 4 * self.parents.len());
        buf.extend_from_slice(&MAGIC);
        push_u32(&mut buf, VERSION);
        push_u32(&mut buf, self.rank);
        let (tag, index) = match self.resume_at {
            Boundary::Pass(s) => (0u8, s),
            Boundary::MergeRound(r) => (1, r),
        };
        buf.push(tag);
        push_u32(&mut buf, index);
        let (p, cc) = (&self.progress, &self.progress.localcc);
        for v in [
            p.tuples_emitted,
            p.peak_tuples,
            p.presolve_dropped,
            cc.groups,
            cc.filtered_groups,
            cc.edges,
            cc.union_edges,
            cc.verify_iterations,
            cc.uf.finds,
            cc.uf.path_splits,
            cc.uf.unions,
        ] {
            push_u64(&mut buf, v);
        }
        push_u64(&mut buf, self.parents.len() as u64);
        for &p in &self.parents {
            push_u32(&mut buf, p);
        }
        let sum = fnv1a(&buf);
        push_u64(&mut buf, sum);
        buf
    }

    /// Parse and verify the on-disk byte layout.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CkptError> {
        let mut c = open_envelope(bytes)?;
        let rank = c.u32()?;
        let tag = c.u8()?;
        let index = c.u32()?;
        let resume_at = match tag {
            0 => Boundary::Pass(index),
            1 => Boundary::MergeRound(index),
            other => return Err(CkptError::Corrupt(format!("unknown phase tag {other}"))),
        };
        let progress = Progress {
            tuples_emitted: c.u64()?,
            peak_tuples: c.u64()?,
            presolve_dropped: c.u64()?,
            localcc: LocalCcStats {
                groups: c.u64()?,
                filtered_groups: c.u64()?,
                edges: c.u64()?,
                union_edges: c.u64()?,
                verify_iterations: c.u64()?,
                uf: UfOpStats {
                    finds: c.u64()?,
                    path_splits: c.u64()?,
                    unions: c.u64()?,
                },
            },
        };
        let len = c.u64()?;
        let Ok(len) = usize::try_from(len) else {
            return Err(CkptError::Corrupt(format!("parent length {len} overflows")));
        };
        // Length sanity before allocating: the remaining body must hold
        // exactly `len` u32s.
        let remaining = c.bytes.len() - c.pos;
        if remaining != len * 4 {
            return Err(CkptError::Corrupt(format!(
                "parent array claims {len} entries ({} bytes) but {remaining} remain",
                len * 4
            )));
        }
        let mut parents = Vec::with_capacity(len);
        for _ in 0..len {
            parents.push(c.u32()?);
        }
        let n = parents.len() as u32;
        if parents.iter().any(|&p| p >= n) {
            return Err(CkptError::Corrupt("parent index out of range".to_string()));
        }
        Ok(Checkpoint {
            rank,
            resume_at,
            progress,
            parents,
        })
    }

    /// Atomically write this checkpoint as `dir/rank{rank}.ckpt`: the bytes
    /// land in a `.tmp` sibling first and are renamed over the live file,
    /// so a crash mid-write never corrupts the previous checkpoint.
    pub fn store(&self, dir: &Path) -> Result<(), CkptError> {
        std::fs::create_dir_all(dir)?;
        let path = Self::path_for(dir, self.rank);
        let tmp = path.with_extension("ckpt.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Load `dir/rank{rank}.ckpt`, verifying magic, version, structure,
    /// and checksum. A missing file is an error like any other: a rank
    /// only loads a checkpoint it has written.
    pub fn load(dir: &Path, rank: u32) -> Result<Checkpoint, CkptError> {
        Self::from_bytes(&std::fs::read(Self::path_for(dir, rank))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rank: u32) -> Checkpoint {
        Checkpoint {
            rank,
            resume_at: Boundary::Pass(2),
            progress: Progress {
                tuples_emitted: 12_345,
                peak_tuples: 6_789,
                presolve_dropped: 321,
                localcc: LocalCcStats {
                    groups: 10,
                    filtered_groups: 1,
                    edges: 33,
                    union_edges: 7,
                    verify_iterations: 2,
                    uf: UfOpStats {
                        finds: 100,
                        path_splits: 5,
                        unions: 42,
                    },
                },
            },
            parents: vec![1, 1, 2, 3, 3],
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("metaprep_core_ckpt_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn bytes_roundtrip_exactly() {
        let ck = sample(3);
        let got = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(got, ck);
        let merge = Checkpoint {
            resume_at: Boundary::MergeRound(1),
            ..sample(0)
        };
        assert_eq!(Checkpoint::from_bytes(&merge.to_bytes()).unwrap(), merge);
    }

    #[test]
    fn store_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let ck = sample(2);
        ck.store(&dir).unwrap();
        assert_eq!(Checkpoint::load(&dir, 2).unwrap(), ck);
        // A rank only loads what it wrote: a missing file is an error.
        assert!(matches!(Checkpoint::load(&dir, 5), Err(CkptError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_overwrites_atomically() {
        let dir = tmpdir("overwrite");
        sample(1).store(&dir).unwrap();
        let mut newer = sample(1);
        newer.progress.tuples_emitted = 99;
        newer.store(&dir).unwrap();
        assert_eq!(Checkpoint::load(&dir, 1).unwrap(), newer);
        // No tmp residue.
        assert!(!Checkpoint::path_for(&dir, 1)
            .with_extension("ckpt.tmp")
            .exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let ck = sample(0);
        let good = ck.to_bytes();

        // Flip one payload byte anywhere: the checksum must catch it.
        for pos in [0usize, 4, 13, good.len() - 9] {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            assert!(
                matches!(Checkpoint::from_bytes(&bad), Err(CkptError::Corrupt(_))),
                "flipped byte {pos} went undetected"
            );
        }
        // Truncation.
        assert!(matches!(
            Checkpoint::from_bytes(&good[..good.len() - 1]),
            Err(CkptError::Corrupt(_))
        ));
        assert!(matches!(
            Checkpoint::from_bytes(&good[..5]),
            Err(CkptError::Corrupt(_))
        ));
        assert!(matches!(
            Checkpoint::from_bytes(&[]),
            Err(CkptError::Corrupt(_))
        ));
    }

    #[test]
    fn wrong_version_is_rejected_with_valid_checksum() {
        let ck = sample(0);
        let mut bytes = ck.to_bytes();
        // Rewrite the version field and re-checksum so only the version
        // check can reject it.
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        match Checkpoint::from_bytes(&bytes) {
            Err(CkptError::Corrupt(s)) => assert!(s.contains("version 3"), "{s}"),
            other => panic!("expected version rejection, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_parents_are_rejected() {
        let mut ck = sample(0);
        ck.parents = vec![0, 9]; // 9 >= len 2
        let bytes = ck.to_bytes();
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CkptError::Corrupt(_))
        ));
    }
}
