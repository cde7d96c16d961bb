; An outbound filter that reads two fields of the destination's peer
; info and nothing else of it: `groupable: reads {type, flags}`. Every
; peer with the same session type and flags shares one run.
        call get_peer_info
        ldxw r6, [r0+PEER_INFO_OFF_TYPE]
        ldxw r7, [r0+PEER_INFO_OFF_FLAGS]
        jne r6, IBGP_SESSION, pass
        and r7, PEER_FLAG_RR_CLIENT
        jne r7, 0, pass
        mov r0, FILTER_REJECT
        exit
pass:
        call next
        exit
