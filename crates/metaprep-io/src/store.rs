//! Flat in-memory read storage.

/// A flat container of read sequences.
///
/// Sequences are concatenated into one byte buffer with an offsets table, so
/// iterating reads is a linear scan (no per-read allocation) — the access
/// pattern KmerGen needs. Each sequence carries:
///
/// * a *fragment id* (global read id): both mates of a paired-end read share
///   one fragment id (paper §3.2), and component labels are per fragment;
/// * an optional name (generated on write when absent);
/// * optional quality bytes (constant-filled on write when absent).
#[derive(Clone, Debug, Default)]
pub struct ReadStore {
    data: Vec<u8>,
    /// `bounds[i]..bounds[i+1]` is sequence `i` within `data`.
    bounds: Vec<usize>,
    /// Per-sequence fragment id.
    frag: Vec<u32>,
    /// Per-sequence names; empty Vec means "no names stored".
    names: Vec<String>,
    /// Quality bytes, same layout as `data`; empty means "no quals stored".
    quals: Vec<u8>,
    /// Number of distinct fragments (max frag id + 1).
    num_fragments: u32,
}

impl ReadStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self {
            bounds: vec![0],
            ..Self::default()
        }
    }

    /// Create an empty store with capacity hints (`seqs` sequences of about
    /// `avg_len` bases).
    pub fn with_capacity(seqs: usize, avg_len: usize) -> Self {
        let mut s = Self::new();
        s.data.reserve(seqs * avg_len);
        s.bounds.reserve(seqs + 1);
        s.frag.reserve(seqs);
        s
    }

    /// Append one unpaired sequence; its fragment id is allocated fresh.
    /// Returns the fragment id.
    pub fn push_single(&mut self, seq: &[u8]) -> u32 {
        let id = self.num_fragments;
        self.push_with_frag(seq, id);
        id
    }

    /// Append a paired-end read (two mates sharing one fragment id).
    /// Returns the fragment id.
    pub fn push_pair(&mut self, mate1: &[u8], mate2: &[u8]) -> u32 {
        let id = self.num_fragments;
        self.push_with_frag(mate1, id);
        self.push_with_frag(mate2, id);
        id
    }

    /// Append a sequence under an explicit fragment id. Ids may repeat (for
    /// mates) but the maximum must grow densely; this is enforced so that
    /// `num_fragments` can size component arrays exactly.
    pub fn push_with_frag(&mut self, seq: &[u8], frag: u32) {
        assert!(
            frag <= self.num_fragments,
            "fragment ids must be dense: got {frag}, next is {}",
            self.num_fragments
        );
        self.data.extend_from_slice(seq);
        self.bounds.push(self.data.len());
        self.frag.push(frag);
        if frag == self.num_fragments {
            self.num_fragments += 1;
        }
    }

    /// Attach a name to the most recently pushed sequence. Either all
    /// sequences are named or none are.
    pub fn set_last_name(&mut self, name: &str) {
        assert_eq!(
            self.names.len() + 1,
            self.len(),
            "set_last_name must follow every push"
        );
        self.names.push(name.to_string());
    }

    /// Attach quality bytes to the most recently pushed sequence.
    pub fn set_last_qual(&mut self, qual: &[u8]) {
        let (lo, hi) = (self.bounds[self.len() - 1], self.bounds[self.len()]);
        assert_eq!(qual.len(), hi - lo, "quality length must match sequence");
        assert_eq!(self.quals.len(), lo, "set_last_qual must follow every push");
        self.quals.extend_from_slice(qual);
    }

    /// Number of stored sequences (mates count separately).
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// True if no sequences are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct fragments (global read ids). This is the `R` of
    /// the paper's analysis (§3.7) and the size of component arrays.
    pub fn num_fragments(&self) -> u32 {
        self.num_fragments
    }

    /// Total bases stored (the `M` of the paper's analysis, in bp).
    pub fn total_bases(&self) -> usize {
        self.data.len()
    }

    /// Sequence `i`.
    #[inline]
    pub fn seq(&self, i: usize) -> &[u8] {
        &self.data[self.bounds[i]..self.bounds[i + 1]]
    }

    /// Fragment id of sequence `i`.
    #[inline]
    pub fn frag_id(&self, i: usize) -> u32 {
        self.frag[i]
    }

    /// Name of sequence `i`, if names are stored.
    pub fn name(&self, i: usize) -> Option<&str> {
        self.names.get(i).map(|s| s.as_str())
    }

    /// Quality slice of sequence `i`, if stored.
    pub fn qual(&self, i: usize) -> Option<&[u8]> {
        if self.quals.len() == self.data.len() {
            Some(&self.quals[self.bounds[i]..self.bounds[i + 1]])
        } else {
            None
        }
    }

    /// Iterate `(seq, frag_id)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], u32)> + '_ {
        (0..self.len()).map(move |i| (self.seq(i), self.frag_id(i)))
    }

    /// The FASTQ layout of the store: `Ok(true)` when every fragment is two
    /// consecutive sequences (fragment `i` is sequences `2i` and `2i + 1`,
    /// an interleaved paired file), `Ok(false)` when every fragment is one
    /// sequence (an unpaired file, or no sequences). `Err(i)` names the
    /// first sequence that fits neither, as where mate pairs mix with
    /// single reads: no FASTQ file holds such a store.
    pub fn paired(&self) -> Result<bool, usize> {
        let paired = self.len() >= 2 && self.frag[1] == 0;
        let want = |i: usize| if paired { i / 2 } else { i };
        if let Some(i) = (0..self.len()).find(|&i| self.frag[i] as usize != want(i)) {
            return Err(i);
        }
        if paired && !self.len().is_multiple_of(2) {
            return Err(self.len() - 1);
        }
        Ok(paired)
    }

    /// Build a new store containing only sequences whose fragment id
    /// satisfies `keep`, renumbering fragment ids densely while preserving
    /// pairing and order.
    pub fn filter_fragments(&self, mut keep: impl FnMut(u32) -> bool) -> ReadStore {
        let mut remap: Vec<u32> = vec![u32::MAX; self.num_fragments as usize];
        let mut out = ReadStore::new();
        let mut next = 0u32;
        for i in 0..self.len() {
            let f = self.frag[i];
            if !keep(f) {
                continue;
            }
            let nf = if remap[f as usize] == u32::MAX {
                remap[f as usize] = next;
                next += 1;
                next - 1
            } else {
                remap[f as usize]
            };
            out.push_with_frag(self.seq(i), nf);
            if let Some(n) = self.name(i) {
                out.set_last_name(n);
            }
            if let Some(q) = self.qual(i) {
                out.set_last_qual(q);
            }
        }
        out
    }

    /// Concatenate another store onto this one, shifting its fragment ids.
    pub fn append(&mut self, other: &ReadStore) {
        let base = self.num_fragments;
        for i in 0..other.len() {
            self.push_with_frag(other.seq(i), base + other.frag_id(i));
            if let Some(n) = other.name(i) {
                self.set_last_name(n);
            }
            if let Some(q) = other.qual(i) {
                self.set_last_qual(q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store() {
        let s = ReadStore::new();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.num_fragments(), 0);
        assert_eq!(s.total_bases(), 0);
    }

    #[test]
    fn push_single_allocates_fresh_ids() {
        let mut s = ReadStore::new();
        assert_eq!(s.push_single(b"ACGT"), 0);
        assert_eq!(s.push_single(b"GGGG"), 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_fragments(), 2);
        assert_eq!(s.seq(0), b"ACGT");
        assert_eq!(s.seq(1), b"GGGG");
    }

    #[test]
    fn push_pair_shares_fragment_id() {
        let mut s = ReadStore::new();
        let id = s.push_pair(b"AAAA", b"TTTT");
        assert_eq!(id, 0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_fragments(), 1);
        assert_eq!(s.frag_id(0), s.frag_id(1));
        let id2 = s.push_pair(b"CCCC", b"GGGG");
        assert_eq!(id2, 1);
        assert_eq!(s.num_fragments(), 2);
    }

    #[test]
    #[should_panic]
    fn sparse_fragment_ids_rejected() {
        let mut s = ReadStore::new();
        s.push_with_frag(b"ACGT", 5);
    }

    #[test]
    fn names_and_quals_roundtrip() {
        let mut s = ReadStore::new();
        s.push_single(b"ACGT");
        s.set_last_name("read0");
        s.set_last_qual(b"IIII");
        assert_eq!(s.name(0), Some("read0"));
        assert_eq!(s.qual(0), Some(&b"IIII"[..]));
    }

    #[test]
    fn qual_absent_when_not_set() {
        let mut s = ReadStore::new();
        s.push_single(b"ACGT");
        assert_eq!(s.qual(0), None);
        assert_eq!(s.name(0), None);
    }

    #[test]
    #[should_panic]
    fn qual_length_mismatch_rejected() {
        let mut s = ReadStore::new();
        s.push_single(b"ACGT");
        s.set_last_qual(b"II");
    }

    #[test]
    fn iter_yields_seq_and_frag() {
        let mut s = ReadStore::new();
        s.push_pair(b"AA", b"CC");
        s.push_single(b"GG");
        let v: Vec<_> = s.iter().map(|(q, f)| (q.to_vec(), f)).collect();
        assert_eq!(
            v,
            vec![
                (b"AA".to_vec(), 0),
                (b"CC".to_vec(), 0),
                (b"GG".to_vec(), 1)
            ]
        );
    }

    #[test]
    fn filter_fragments_renumbers_densely() {
        let mut s = ReadStore::new();
        s.push_pair(b"AA", b"CC"); // frag 0
        s.push_single(b"GG"); // frag 1
        s.push_pair(b"TT", b"AA"); // frag 2
        let kept = s.filter_fragments(|f| f != 1);
        assert_eq!(kept.len(), 4);
        assert_eq!(kept.num_fragments(), 2);
        assert_eq!(kept.frag_id(0), 0);
        assert_eq!(kept.frag_id(1), 0);
        assert_eq!(kept.frag_id(2), 1);
        assert_eq!(kept.frag_id(3), 1);
        assert_eq!(kept.seq(2), b"TT");
    }

    #[test]
    fn append_shifts_fragment_ids() {
        let mut a = ReadStore::new();
        a.push_single(b"AA");
        let mut b = ReadStore::new();
        b.push_pair(b"CC", b"GG");
        a.append(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.num_fragments(), 2);
        assert_eq!(a.frag_id(1), 1);
        assert_eq!(a.frag_id(2), 1);
    }

    #[test]
    fn total_bases_sums_lengths() {
        let mut s = ReadStore::new();
        s.push_single(b"ACGT");
        s.push_single(b"AC");
        assert_eq!(s.total_bases(), 6);
    }

    #[test]
    fn paired_names_the_first_sequence_off_the_layout() {
        let mut s = ReadStore::new();
        assert_eq!(s.paired(), Ok(false));
        s.push_pair(b"AC", b"GT");
        s.push_pair(b"AC", b"GT");
        assert_eq!(s.paired(), Ok(true));
        s.push_single(b"ACGT");
        assert_eq!(s.paired(), Err(4), "a single after pairs");

        let mut s = ReadStore::new();
        s.push_single(b"AC");
        assert_eq!(s.paired(), Ok(false));
        s.push_single(b"GT");
        assert_eq!(s.paired(), Ok(false));
        s.push_pair(b"AC", b"GT");
        assert_eq!(s.paired(), Err(3), "a pair after singles");

        let mut s = ReadStore::new();
        s.push_pair(b"AC", b"GT");
        s.push_with_frag(b"AC", 0);
        assert_eq!(s.paired(), Err(2), "a third mate");
    }
}
