; Copies the destination's whole peer info to the stack through a
; helper: the verifier no longer knows which bytes the program goes on to
; read, so it runs once per peer (`per-peer: get_peer_info pointer
; escapes at pc 5`).
        call get_peer_info
        mov r2, r0
        mov r1, r10
        sub r1, 24
        mov r3, 24
        call ebpf_memcpy
        ldxw r6, [r10-16]
        jne r6, IBGP_SESSION, pass
        mov r0, FILTER_REJECT
        exit
pass:
        call next
        exit
