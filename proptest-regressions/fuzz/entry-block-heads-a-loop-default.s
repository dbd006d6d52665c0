; hand-written reproducer: the entry block heads a loop
; variant: default
; violation: round 0: UNSOUND WCET — simulated 259 cycles > bound 14
; cause: the task start was no entry of the loop instance, so the ILP
; pinned its back edge to zero. The unsigned compare bounds the loop
; from an unknown `r1`; the signed `slti` form is refused without a
; loop-bound annotation.
        .text
main:   addi r1, r1, 1
        sltui r5, r1, 50
        bnez r5, main
        halt
