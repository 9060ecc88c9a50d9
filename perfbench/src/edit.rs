//! The seeded edit generator of the `edit_loop` workload.
//!
//! A revision is held as EXLIF lines. An edit flips one two-input gate
//! between `and` and `or` inside one `.fub` block: the netlist keeps its
//! wiring and names, only that gate's kind changes, so exactly that FUB's
//! content digest moves. Flipping the same line again undoes the edit, so
//! a recorded edit sequence replays onto the base text to rebuild any
//! revision.

use std::path::Path;

use crate::rng::SplitMix64;

/// One gate flip: the FUB it dirties and the EXLIF line it rewrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edit {
    /// Index of the FUB among the design's `.fub` blocks.
    pub fub: usize,
    /// 0-based line index of the flipped `.gate` statement.
    pub line: usize,
}

/// A design revision that can be edited and written back out.
#[derive(Debug, Clone)]
pub struct EditableDesign {
    lines: Vec<String>,
    /// Per FUB (in file order) that has flippable gates: `(fub index,
    /// gate line indices)`.
    gates: Vec<(usize, Vec<usize>)>,
}

const AND: &str = ".gate and ";
const OR: &str = ".gate or ";

impl EditableDesign {
    /// Indexes a flat (hierarchy-free) EXLIF text, as `exlif::write`
    /// produces it.
    pub fn new(text: &str) -> Result<EditableDesign, String> {
        let lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let mut gates: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut fub: Option<usize> = None;
        let mut fubs_seen = 0usize;
        for (i, line) in lines.iter().enumerate() {
            let t = line.trim_start();
            if t.starts_with(".fub ") {
                fub = Some(fubs_seen);
                fubs_seen += 1;
            } else if t.starts_with(".endfub") {
                fub = None;
            } else if t.starts_with(".model") || t.starts_with(".subckt") {
                return Err("edit generator needs flat EXLIF (no .model/.subckt)".to_owned());
            } else if let Some(f) = fub {
                if t.starts_with(AND) || t.starts_with(OR) {
                    match gates.last_mut() {
                        Some((g, list)) if *g == f => list.push(i),
                        _ => gates.push((f, vec![i])),
                    }
                }
            }
        }
        if gates.is_empty() {
            return Err("design has no and/or gate inside a .fub block".to_owned());
        }
        Ok(EditableDesign { lines, gates })
    }

    /// Draws the next edit: a uniformly chosen FUB with flippable gates,
    /// then a uniformly chosen gate in it. Applies and returns it.
    pub fn random_edit(&mut self, rng: &mut SplitMix64) -> Edit {
        let (fub, lines) = &self.gates[rng.below(self.gates.len())];
        let edit = Edit {
            fub: *fub,
            line: lines[rng.below(lines.len())],
        };
        self.apply(edit);
        edit
    }

    /// Flips the gate at `edit.line` (an involution).
    pub fn apply(&mut self, edit: Edit) {
        let line = &mut self.lines[edit.line];
        let indent = line.len() - line.trim_start().len();
        let body = &line[indent..];
        let flipped = if let Some(rest) = body.strip_prefix(AND) {
            format!("{}{OR}{rest}", &line[..indent])
        } else if let Some(rest) = body.strip_prefix(OR) {
            format!("{}{AND}{rest}", &line[..indent])
        } else {
            panic!("edit at line {} does not name an and/or gate", edit.line);
        };
        *line = flipped;
    }

    /// The revision's EXLIF text.
    pub fn text(&self) -> String {
        let mut out = String::with_capacity(self.lines.iter().map(|l| l.len() + 1).sum());
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// Writes the revision to `path`.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.text()).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqavf_netlist::exlif;
    use seqavf_netlist::flatten::parse_netlist;
    use seqavf_netlist::scc::find_loops;
    use seqavf_netlist::synth::{generate, SynthConfig};

    fn base_text() -> String {
        exlif::write(&generate(&SynthConfig::xeon_like(11)).netlist)
    }

    #[test]
    fn same_seed_gives_same_edits() {
        let text = base_text();
        let run = |seed| {
            let mut d = EditableDesign::new(&text).unwrap();
            let mut rng = SplitMix64::new(seed, 9);
            (0..20).map(|_| d.random_edit(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn each_edit_dirties_exactly_one_fub() {
        let text = base_text();
        let mut d = EditableDesign::new(&text).unwrap();
        let mut rng = SplitMix64::new(3, 9);
        let mut prev = parse_netlist(&text).unwrap();
        for _ in 0..6 {
            let edit = d.random_edit(&mut rng);
            let next = parse_netlist(&d.text()).unwrap();
            let before = prev.fub_digests(&find_loops(&prev));
            let after = next.fub_digests(&find_loops(&next));
            assert_eq!(before.len(), after.len());
            let dirty: Vec<usize> = (0..before.len())
                .filter(|&f| before[f] != after[f])
                .collect();
            assert_eq!(dirty, vec![edit.fub], "edit {edit:?} dirtied {dirty:?}");
            prev = next;
        }
    }

    #[test]
    fn replaying_edits_rebuilds_the_revision() {
        let text = base_text();
        let mut d = EditableDesign::new(&text).unwrap();
        let mut rng = SplitMix64::new(8, 9);
        let edits: Vec<Edit> = (0..10).map(|_| d.random_edit(&mut rng)).collect();
        let mut replay = EditableDesign::new(&text).unwrap();
        for &e in &edits {
            replay.apply(e);
        }
        assert_eq!(replay.text(), d.text());
    }
}
