//! The data store: each view's private data space, stored grow-on-write,
//! and its bounds checks. Nothing here touches timing state.

use super::MemorySystem;

impl MemorySystem {
    /// Reads data without touching timing state (test/setup use).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the configured memory size.
    pub fn peek(&self, addr: u64) -> f64 {
        self.check(addr, 1);
        self.data.get(addr as usize).copied().unwrap_or(0.0)
    }

    /// Writes data without touching timing state: setup, and the
    /// simulator's scalar stores (the grant is separate). Strided vector
    /// stores write through [`MemorySystem::store_strided`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the configured memory size.
    pub fn poke(&mut self, addr: u64, value: f64) {
        self.check(addr, 1);
        self.written(addr, 1)[0] = value;
    }

    /// Copies the run of `dst.len()` words starting at `addr` into `dst`
    /// and returns `true`, or returns `false`, copying nothing, if the
    /// run leaves the configured memory. Bulk data access, timing
    /// untouched: the simulator's unit-stride vector loads read through
    /// it, and checks compare whole data spaces with it.
    pub fn read_run(&self, addr: u64, dst: &mut [f64]) -> bool {
        if !self.in_bounds(addr, dst.len()) {
            return false;
        }
        let len = self.data.len();
        let start = (addr as usize).min(len);
        let end = (addr as usize + dst.len()).min(len);
        let (stored, unwritten) = dst.split_at_mut(end - start);
        stored.copy_from_slice(&self.data[start..end]);
        unwritten.fill(0.0);
        true
    }

    /// Writes `values` to the run of words starting at `addr` without
    /// touching timing state.
    ///
    /// # Panics
    ///
    /// Panics if the run leaves the configured memory.
    pub fn store_run(&mut self, addr: u64, values: &[f64]) {
        self.check(addr, values.len());
        self.written(addr, values.len()).copy_from_slice(values);
    }

    /// Writes `values` to the words `addr + stride·e` without touching
    /// timing state: the simulator's strided vector stores. The storage
    /// grows once, to the highest of those words.
    ///
    /// # Panics
    ///
    /// Panics if the first or last word is outside the configured memory;
    /// the words between them are then inside it too.
    pub fn store_strided(&mut self, addr: u64, stride: i64, values: &[f64]) {
        let Some(span) = values.len().checked_sub(1) else {
            return;
        };
        let last = addr.wrapping_add_signed(stride.wrapping_mul(span as i64));
        self.check(addr, 1);
        self.check(last, 1);
        let high = addr.max(last) as usize;
        if high >= self.data.len() {
            self.data.resize(high + 1, 0.0);
        }
        let mut word = addr;
        for &value in values {
            self.data[word as usize] = value;
            word = word.wrapping_add_signed(stride);
        }
    }

    /// The stored run of `n` words at `addr`, growing the storage to
    /// cover it; the caller has checked the run's bounds.
    fn written(&mut self, addr: u64, n: usize) -> &mut [f64] {
        let (start, end) = (addr as usize, addr as usize + n);
        if end > self.data.len() {
            self.data.resize(end, 0.0);
        }
        &mut self.data[start..end]
    }

    /// Whether the run of `n` words starting at `addr` lies inside the
    /// configured memory.
    fn in_bounds(&self, addr: u64, n: usize) -> bool {
        usize::try_from(addr)
            .ok()
            .and_then(|start| start.checked_add(n))
            .is_some_and(|end| end <= self.words)
    }

    /// Panics unless the run of `n` words starting at `addr` lies inside
    /// the configured memory, naming the run's last word.
    pub(super) fn check(&self, addr: u64, n: usize) {
        assert!(
            self.in_bounds(addr, n),
            "memory access out of bounds: word address {} >= {} words",
            addr.saturating_add(n.saturating_sub(1) as u64),
            self.words
        );
    }
}
