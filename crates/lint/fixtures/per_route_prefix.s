; An inbound filter that refuses prefixes longer than /24. It reads the
; prefix, so one run cannot answer for the other routes of its UPDATE
; (`per-route: grants get_prefix`). Lint with
; --point bgp_inbound_filter --helpers get_prefix,next
        call get_prefix
        jeq r0, 0, pass
        ldxw r6, [r0+PREFIX_OFF_LEN]
        jle r6, 24, pass
        mov r0, FILTER_REJECT
        exit
pass:
        call next
        exit
