//! DOT (Graphviz) export of annotated CFGs.
//!
//! The paper visualizes analysis results "as annotations in the
//! control-flow graph that can be visualized using AbsInt's graph viewer
//! aiSee"; this module produces the equivalent open-format artifact.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::graph::{BlockId, Cfg, EdgeKind};

/// Extra per-block label lines (e.g. WCET contributions, cache
/// classifications) merged into the rendering.
#[derive(Clone, Debug, Default)]
pub struct Annotations {
    /// Extra lines appended to a block's label.
    pub block_notes: BTreeMap<BlockId, Vec<String>>,
    /// Blocks to highlight (e.g. the worst-case execution path).
    pub highlight: Vec<BlockId>,
}

impl Annotations {
    /// Creates empty annotations.
    pub fn new() -> Annotations {
        Annotations::default()
    }

    /// Appends a note line to a block.
    pub fn note_block(&mut self, b: BlockId, line: impl Into<String>) {
        self.block_notes.entry(b).or_default().push(line.into());
    }
}

/// Renders the CFG as a DOT digraph, one cluster per function.
///
/// # Example
///
/// ```
/// use stamp_isa::asm::assemble;
/// use stamp_cfg::{dot, CfgBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble(".text\nmain: halt\n")?;
/// let cfg = CfgBuilder::new(&p).build()?;
/// let text = dot::render(&cfg, &dot::Annotations::new());
/// assert!(text.starts_with("digraph cfg {"));
/// assert!(text.contains("halt"));
/// # Ok(())
/// # }
/// ```
pub fn render(cfg: &Cfg, ann: &Annotations) -> String {
    let mut out = String::new();
    out.push_str("digraph cfg {\n  node [shape=box, fontname=\"monospace\"];\n");
    for f in cfg.functions() {
        let _ = writeln!(out, "  subgraph cluster_{} {{", f.id.index());
        let _ = writeln!(out, "    label=\"{}\";", escape(&f.name));
        for &bid in &f.blocks {
            let b = cfg.block(bid);
            let mut label = format!("{bid} @ {:#x}\\l", b.start);
            for &(addr, insn) in &b.insns {
                let _ = write!(label, "{addr:#06x}: {}\\l", escape(&insn.to_string()));
            }
            for note in ann.block_notes.get(&bid).into_iter().flatten() {
                let _ = write!(label, "-- {}\\l", escape(note));
            }
            let style = if ann.highlight.contains(&bid) {
                ", style=filled, fillcolor=lightsalmon"
            } else {
                ""
            };
            let _ = writeln!(out, "    {bid} [label=\"{label}\"{style}];");
        }
        let _ = writeln!(out, "  }}");
    }
    for e in cfg.edges() {
        let style = match e.kind {
            EdgeKind::Fall => "",
            EdgeKind::Taken => " color=blue",
            EdgeKind::CallFall => " style=dashed",
        };
        let _ = writeln!(out, "  {} -> {} [{}];", e.from, e.to, style.trim_start());
    }
    // Call edges between clusters (dotted).
    for cs in cfg.call_sites() {
        for &callee in cs.callee.targets() {
            let entry = cfg.func(callee).entry;
            let _ = writeln!(out, "  {} -> {} [style=dotted, color=gray];", cs.block, entry);
        }
    }
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfgBuilder;
    use stamp_isa::asm::assemble;

    #[test]
    fn render_contains_blocks_edges_and_notes() {
        let src = ".text\nmain: call f\nhalt\nf: ret\n";
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let mut ann = Annotations::new();
        ann.note_block(BlockId(0), "wcet: 42 cycles");
        ann.highlight.push(BlockId(0));
        let text = render(&cfg, &ann);
        assert!(text.contains("cluster_0"));
        assert!(text.contains("cluster_1"));
        assert!(text.contains("wcet: 42 cycles"));
        assert!(text.contains("lightsalmon"));
        assert!(text.contains("style=dotted")); // call edge
        assert!(text.contains("style=dashed")); // call-fall edge
    }
}
