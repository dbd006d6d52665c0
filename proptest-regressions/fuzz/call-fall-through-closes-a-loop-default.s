; hand-written reproducer: a call's fall-through is the loop's back edge
; variant: default
; violation: wcet analysis failed: path analysis: path ILP failed:
; objective is unbounded (simulated 76 cycles)
; cause: the return edge that closes the loop was counted as an entry
; of the loop instance, which then had no back edge to bound.
        .text
main:   li   r1, 5
        j    head
body:   addi r1, r1, -1
        call f
head:   bnez r1, body
        halt
f:      ret
