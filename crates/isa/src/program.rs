//! Programs: resolved instruction sequences with labels and loop
//! discovery.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::IsaError;
use crate::instr::Instruction;

/// A loop found in a [`Program`]: a backward branch plus its body range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loop {
    /// Index of the first body instruction (the branch target).
    pub head: usize,
    /// Index of the backward branch instruction itself.
    pub branch: usize,
}

impl Loop {
    /// The body instruction indices, including the branch.
    pub fn body(&self) -> std::ops::RangeInclusive<usize> {
        self.head..=self.branch
    }

    /// Number of instructions in the body (including the branch).
    pub fn len(&self) -> usize {
        self.branch - self.head + 1
    }

    /// Whether the body is empty (never true for a well-formed loop).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// An assembled program: instructions plus resolved labels.
///
/// Write one as text with [`crate::asm::assemble`], or build it from
/// typed [`Instruction`]s with [`Program::new`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    instrs: Vec<Instruction>,
    labels: BTreeMap<String, usize>,
}

impl Program {
    /// Creates a program from parts, validating that every branch target
    /// is a defined label.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UndefinedLabel`] if a branch references a label
    /// missing from `labels`.
    pub fn new(
        instrs: Vec<Instruction>,
        labels: BTreeMap<String, usize>,
    ) -> Result<Self, IsaError> {
        for ins in &instrs {
            if let Some(t) = ins.target() {
                if !labels.contains_key(t) {
                    return Err(IsaError::UndefinedLabel(t.to_string()));
                }
            }
        }
        Ok(Program { instrs, labels })
    }

    /// The instruction sequence.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction index a label points to (the label may sit at the
    /// very end of the program, pointing one past the last instruction).
    pub fn label(&self, name: &str) -> Option<usize> {
        self.labels.get(name).copied()
    }

    /// All labels with their instruction indices, name-ordered.
    pub fn labels(&self) -> impl Iterator<Item = (&str, usize)> {
        self.labels.iter().map(|(n, &i)| (n.as_str(), i))
    }

    /// Labels attached to instruction index `at`.
    pub fn labels_at(&self, at: usize) -> impl Iterator<Item = &str> {
        self.labels
            .iter()
            .filter(move |(_, &i)| i == at)
            .map(|(n, _)| n.as_str())
    }

    /// All backward branches (loops), in program order.
    pub fn loops(&self) -> Vec<Loop> {
        let mut found = Vec::new();
        for (idx, ins) in self.instrs.iter().enumerate() {
            if let Some(t) = ins.target() {
                if let Some(head) = self.label(t) {
                    if head <= idx {
                        found.push(Loop { head, branch: idx });
                    }
                }
            }
        }
        found
    }

    /// The *innermost* loop: the shortest backward-branch body.
    ///
    /// For the compiled kernels this is the vectorized strip-mine loop
    /// whose body the MACS bounds analyze.
    pub fn innermost_loop(&self) -> Option<Loop> {
        self.loops().into_iter().min_by_key(Loop::len)
    }

    /// The instructions of a loop body (including the backward branch).
    pub fn loop_body(&self, l: Loop) -> &[Instruction] {
        &self.instrs[l.head..=l.branch]
    }

    /// A copy keeping only the instructions `keep` approves, with labels
    /// remapped to stay attached to the instruction that followed them.
    ///
    /// Used by the A/X code transformers (§3.6 of the MACS paper) to
    /// delete all vector floating point or all vector memory
    /// instructions while preserving control flow.
    ///
    /// ```
    /// use c240_isa::asm::assemble;
    /// let p = assemble("L: ld.l 0(a1),v0\n add.d v0,v0,v1\n jbrs.t L\n halt").unwrap();
    /// let a_only = p.filtered(|_, i| !i.is_vector_fp());
    /// assert_eq!(a_only.len(), 3);
    /// assert_eq!(a_only.label("L"), Some(0));
    /// ```
    pub fn filtered(&self, mut keep: impl FnMut(usize, &Instruction) -> bool) -> Program {
        let mut kept_before = Vec::with_capacity(self.instrs.len() + 1);
        let mut count = 0usize;
        let mut instrs = Vec::new();
        for (idx, ins) in self.instrs.iter().enumerate() {
            kept_before.push(count);
            if keep(idx, ins) {
                instrs.push(ins.clone());
                count += 1;
            }
        }
        kept_before.push(count);
        let labels = self
            .labels
            .iter()
            .map(|(n, &i)| (n.clone(), kept_before[i]))
            .collect();
        Program { instrs, labels }
    }

    /// A copy with the loop body at `l` replaced by `new_body`
    /// (used by the A/X code transformers). Labels after the body are
    /// shifted to stay attached to their instructions.
    pub fn with_loop_body(&self, l: Loop, new_body: Vec<Instruction>) -> Program {
        let old_len = l.len();
        let new_len = new_body.len();
        let mut instrs = Vec::with_capacity(self.instrs.len() - old_len + new_len);
        instrs.extend_from_slice(&self.instrs[..l.head]);
        instrs.extend(new_body);
        instrs.extend_from_slice(&self.instrs[l.branch + 1..]);
        let shift = |i: usize| {
            if i <= l.head {
                i
            } else if i > l.branch {
                i - old_len + new_len
            } else {
                // Label inside the replaced body: clamp to the body start.
                l.head
            }
        };
        let labels = self
            .labels
            .iter()
            .map(|(n, &i)| (n.clone(), shift(i)))
            .collect();
        Program { instrs, labels }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (idx, ins) in self.instrs.iter().enumerate() {
            for lbl in self.labels_at(idx) {
                writeln!(f, "{lbl}:")?;
            }
            writeln!(f, "    {ins}")?;
        }
        for lbl in self.labels_at(self.instrs.len()) {
            writeln!(f, "{lbl}:")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn sample() -> Program {
        assemble(
            "   mov #128,s0
            L7:
                mov s0,vl
                ld.l 40120(a5),v0
                mul.d v0,s1,v1
                add.d v1,v0,v3
                st.l v3,24024(a5)
                add.w #1024,a5
                sub.w #128,s0
                lt.w #0,s0
                jbrs.t L7
                halt",
        )
        .unwrap()
    }

    #[test]
    fn builder_constructs_and_labels_resolve() {
        let p = sample();
        assert_eq!(p.len(), 11);
        assert_eq!(p.label("L7"), Some(1));
        assert_eq!(p.labels().count(), 1);
    }

    #[test]
    fn innermost_loop_detection() {
        let p = sample();
        let l = p.innermost_loop().unwrap();
        assert_eq!(l.head, 1);
        assert_eq!(l.branch, 9);
        assert_eq!(l.len(), 9);
        assert_eq!(p.loop_body(l).len(), 9);
    }

    #[test]
    fn nested_loops_pick_shortest() {
        let p = assemble(
            "outer:
                mov #2,s0
            inner:
                ld.l 0(a0),v0
                sub.w #1,s0
                lt.w #0,s0
                jbrs.t inner
                sub.w #1,s1
                lt.w #0,s1
                jbrs.t outer
                halt",
        )
        .unwrap();
        assert_eq!(p.loops().len(), 2);
        let inner = p.innermost_loop().unwrap();
        assert_eq!(inner.head, p.label("inner").unwrap());
    }

    #[test]
    fn undefined_label_rejected() {
        let branch = Instruction::BranchT {
            target: "nowhere".into(),
        };
        assert_eq!(
            Program::new(vec![branch], BTreeMap::new()).unwrap_err(),
            IsaError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn with_loop_body_replaces_and_shifts_labels() {
        let p = sample();
        let l = p.innermost_loop().unwrap();
        // Keep only the scalar control (drop 4 vector instructions).
        let new_body: Vec<_> = p
            .loop_body(l)
            .iter()
            .filter(|i| !i.is_vector())
            .cloned()
            .collect();
        // SetVl, two int ops, the compare and the branch remain.
        assert_eq!(new_body.len(), 5);
        let q = p.with_loop_body(l, new_body);
        assert_eq!(q.len(), 11 - 4);
        assert_eq!(q.label("L7"), Some(1));
        // The loop still closes.
        let l2 = q.innermost_loop().unwrap();
        assert_eq!(l2.head, 1);
    }

    #[test]
    fn display_includes_labels() {
        let p = sample();
        let text = p.to_string();
        assert!(text.contains("L7:"));
        assert!(text.contains("ld.l 40120(a5),v0"));
        assert!(text.contains("jbrs.t L7"));
    }

    #[test]
    fn loop_body_range() {
        let l = Loop { head: 3, branch: 7 };
        assert_eq!(l.body(), 3..=7);
        assert_eq!(l.len(), 5);
        assert!(!l.is_empty());
    }
}
