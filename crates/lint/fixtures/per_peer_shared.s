; Reads one field only, but is granted persistent memory: sharing its
; runs would change how often it touches that memory (`per-peer:
; declares ctx_shared_get`). Lint with
; --point bgp_outbound_filter --helpers get_peer_info,ctx_shared_get,next
        call get_peer_info
        ldxw r6, [r0+PEER_INFO_OFF_TYPE]
        mov r1, 1
        call ctx_shared_get
        call next
        exit
