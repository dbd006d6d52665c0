//! The precise stack analysis: the value analysis's own stack extent.

use std::collections::BTreeMap;

use stamp_hw::HwConfig;
use stamp_value::{StackExtent, ValueAnalysis};

use crate::{StackError, StackResult};

/// The task's worst-case stack usage: how far below the stack top the
/// value analysis found `sp` can reach after any instruction of any
/// `(block, context)` instance ([`ValueAnalysis::stack_extent`]).
///
/// # Errors
///
/// [`StackError::UnknownStackPointer`] if `sp` escapes the analysis at
/// some instruction (its interval widens to the whole address space, or
/// below the RAM).
///
/// # Example
///
/// ```
/// use stamp_isa::asm::assemble;
/// use stamp_cfg::CfgBuilder;
/// use stamp_ai::{Icfg, VivuConfig};
/// use stamp_hw::HwConfig;
/// use stamp_value::{ValueAnalysis, ValueOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble(".text\nmain: addi sp, sp, -48\naddi sp, sp, 48\nhalt\n")?;
/// let hw = HwConfig::default();
/// let cfg = CfgBuilder::new(&p).build()?;
/// let icfg = Icfg::build(&cfg, &VivuConfig::default())?;
/// let va = ValueAnalysis::run(&p, &hw, &cfg, &icfg, &ValueOptions::default());
/// let r = stamp_stack::analyze_icfg(&hw, &va)?;
/// assert_eq!(r.total, 48);
/// # Ok(())
/// # }
/// ```
pub fn analyze_icfg(hw: &HwConfig, va: &ValueAnalysis) -> Result<StackResult, StackError> {
    match va.stack_extent() {
        StackExtent::Lowest(sp) => Ok(StackResult {
            total: hw.mem.stack_top().saturating_sub(sp),
            per_function: BTreeMap::new(),
        }),
        StackExtent::Escapes(addr) => Err(StackError::UnknownStackPointer { addr }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_ai::{Icfg, VivuConfig};
    use stamp_cfg::CfgBuilder;
    use stamp_isa::asm::assemble;
    use stamp_value::ValueOptions;

    fn run(src: &str) -> Result<StackResult, StackError> {
        let p = assemble(src).expect("assembles");
        let hw = HwConfig::default();
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).expect("expands");
        let va = ValueAnalysis::run(&p, &hw, &cfg, &icfg, &ValueOptions::default());
        analyze_icfg(&hw, &va)
    }

    #[test]
    fn nested_calls_accumulate() {
        let r = run("\
            .text
            main: addi sp, sp, -16
                  call f
                  addi sp, sp, 16
                  halt
            f:    addi sp, sp, -32
                  sw lr, 0(sp)
                  call g
                  lw lr, 0(sp)
                  addi sp, sp, 32
                  ret
            g:    addi sp, sp, -8
                  addi sp, sp, 8
                  ret
        ")
        .unwrap();
        assert_eq!(r.total, 16 + 32 + 8);
    }

    #[test]
    fn branch_takes_deeper_arm() {
        let r = run("\
            .text
            main: beq r1, r0, small
                  addi sp, sp, -64
                  addi sp, sp, 64
                  halt
            small:
                  addi sp, sp, -8
                  addi sp, sp, 8
                  halt
        ")
        .unwrap();
        assert_eq!(r.total, 64);
    }

    #[test]
    fn leaf_task_uses_zero() {
        let r = run(".text\nmain: nop\nhalt\n").unwrap();
        assert_eq!(r.total, 0);
    }

    #[test]
    fn sp_in_loop_stays_tracked() {
        // Stack-neutral loop body: sp constant through iterations.
        let r = run("\
            .text
            main: li r1, 10
            loop: addi sp, sp, -16
                  addi sp, sp, 16
                  addi r1, r1, -1
                  bnez r1, loop
                  halt
        ")
        .unwrap();
        assert_eq!(r.total, 16);
    }

    #[test]
    fn computed_sp_rejected() {
        let err = run("\
            .text
            main: lw r1, 0(r2)
                  sub sp, sp, r1
                  halt
        ")
        .unwrap_err();
        assert!(matches!(err, StackError::UnknownStackPointer { .. }));
    }
}
