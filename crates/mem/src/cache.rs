//! The ASU scalar data cache.
//!
//! On the C-240, scalar loads and stores go through the Address/Scalar
//! Unit's data cache, while the vector processor bypasses it and accesses
//! memory directly (§2). We model a small direct-mapped write-through
//! cache: hits cost a fixed latency; misses additionally perform a memory
//! access (and thus interact with banks, refresh and contention). The
//! geometry comes from the machine description; its latencies
//! (`cache_hit_latency`, `cache_miss_penalty`) are charged by the
//! simulator's scalar-memory timing, so this type keeps only the tags and
//! the hit/miss counters.

use c240_isa::MachineDescription;

/// The tags of a direct-mapped, write-through scalar data cache.
///
/// The cache holds no data: loads read, and stores write through to, the
/// one memory image (`MemorySystem`), which keeps scalar and vector
/// accesses coherent.
#[derive(Debug, Clone)]
pub struct ScalarCache {
    /// One tag per direct-mapped line.
    tags: Vec<Option<u64>>,
    line_words: u32,
    hits: u64,
    misses: u64,
    // `addr >> shift` replaces `addr / line_words` when the line size is
    // a power of two (it always is for the c240 geometry); likewise a
    // mask replaces the modulo when `lines` is a power of two. Every
    // scalar access and every vector-stored element maps an address, so
    // this division is on a hot path.
    line_shift: Option<u32>,
    line_mask: Option<u64>,
}

impl ScalarCache {
    /// Creates an empty (all-invalid) cache of the machine's
    /// `cache_lines` lines of `cache_line_words` words.
    pub fn new(machine: &MachineDescription) -> Self {
        let (lines, line_words) = (machine.cache_lines, machine.cache_line_words);
        assert!(lines > 0 && line_words > 0, "cache must be non-empty");
        ScalarCache {
            tags: vec![None; lines as usize],
            line_words,
            hits: 0,
            misses: 0,
            line_shift: line_words
                .is_power_of_two()
                .then(|| line_words.trailing_zeros()),
            line_mask: lines.is_power_of_two().then(|| u64::from(lines) - 1),
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidates all lines and clears statistics.
    pub fn reset(&mut self) {
        self.tags.fill(None);
        self.hits = 0;
        self.misses = 0;
    }

    fn line_and_tag(&self, addr: u64) -> (usize, u64) {
        let line_addr = match self.line_shift {
            Some(s) => addr >> s,
            None => addr / u64::from(self.line_words),
        };
        (self.line_of(line_addr), line_addr)
    }

    /// The cache line a line address maps to.
    fn line_of(&self, line_addr: u64) -> usize {
        match self.line_mask {
            Some(m) => (line_addr & m) as usize,
            None => (line_addr % self.tags.len() as u64) as usize,
        }
    }

    /// Looks up `addr` for a scalar load or store and returns whether it
    /// hit, counting the outcome. A miss fills the line; write-through
    /// stores allocate exactly like loads.
    pub fn access(&mut self, addr: u64) -> bool {
        let (line, tag) = self.line_and_tag(addr);
        if self.tags[line] == Some(tag) {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            self.tags[line] = Some(tag);
            false
        }
    }

    /// Invalidates the line containing `addr` (used when a vector store
    /// bypasses the cache and writes the same location).
    pub fn invalidate(&mut self, addr: u64) {
        let (line, tag) = self.line_and_tag(addr);
        self.invalidate_line(line, tag);
    }

    fn invalidate_line(&mut self, line: usize, tag: u64) {
        if self.tags[line] == Some(tag) {
            self.tags[line] = None;
        }
    }

    /// Invalidates every line overlapping the word run `[addr, addr + n)`:
    /// the same as [`ScalarCache::invalidate`] on each word, with one tag
    /// probe per line instead of per word.
    pub fn invalidate_run(&mut self, addr: u64, n: usize) {
        let Some(span) = n.checked_sub(1) else {
            return;
        };
        let (_, first) = self.line_and_tag(addr);
        let (_, last) = self.line_and_tag(addr + span as u64);
        for tag in first..=last {
            self.invalidate_line(self.line_of(tag), tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> ScalarCache {
        ScalarCache::new(&MachineDescription::c240())
    }

    fn geometry(cache_lines: u32, cache_line_words: u32) -> MachineDescription {
        MachineDescription {
            cache_lines,
            cache_line_words,
            ..MachineDescription::c240()
        }
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = cache();
        assert!(!c.access(10));
        assert_eq!(c.misses(), 1);
        // Same line: hit.
        assert!(c.access(11));
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn store_access_allocates_the_line() {
        // Write-through with allocation: a store counts like a load and
        // fills its line, so a later load of the line hits.
        let mut c = cache();
        assert!(!c.access(20));
        assert!(c.access(21));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut c = ScalarCache::new(&geometry(2, 1));
        c.access(0);
        c.access(2); // maps to line 0 too
        c.access(0); // miss again
        assert_eq!(c.misses(), 3);
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn invalidate_forces_refetch() {
        let mut c = cache();
        c.access(30);
        c.invalidate(30);
        c.access(30);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = cache();
        c.access(1);
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0);
        c.access(1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn non_power_of_two_geometry_still_maps_correctly() {
        let mut c = ScalarCache::new(&geometry(3, 5));
        c.access(0); // line 0
        c.access(4); // same line: hit
        c.access(5); // next line: miss
        c.invalidate_run(3, 4); // both lines
        c.access(4);
        c.access(5);
        assert_eq!((c.hits(), c.misses()), (1, 4));
    }

    #[test]
    fn invalidate_run_matches_invalidating_each_word() {
        for (lines, line_words) in [(256, 4), (3, 5), (4, 1), (2, 8)] {
            let machine = geometry(lines, line_words);
            for addr in 0..20u64 {
                for n in 0..30usize {
                    let mut run = ScalarCache::new(&machine);
                    for word in (0..80).step_by(3) {
                        run.access(word);
                    }
                    let mut each = run.clone();
                    run.invalidate_run(addr, n);
                    for word in addr..addr + n as u64 {
                        each.invalidate(word);
                    }
                    let case = format!("{lines}x{line_words} addr {addr} n {n}");
                    assert_eq!(run.tags, each.tags, "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_line_cache_rejected() {
        let _ = ScalarCache::new(&geometry(0, 1));
    }
}
