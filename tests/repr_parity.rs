//! Property tests: the two daemons' internal attribute representations
//! are observationally equivalent at the xBGP boundary.
//!
//! FIR parses to host-order structs; WREN keeps wire-order `ea_list`s.
//! For any attribute set, both must (a) re-encode to the same neutral
//! typed form and (b) answer `get_attr` with byte-identical payloads —
//! otherwise "the same bytecode on both implementations" would silently
//! mean different inputs.

use bgp_fir::attrs::FirAttrs;
use bgp_wren::ealist::EaList;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xbgp_core::api::{PeerInfo, PeerType};
use xbgp_core::{HostApi, HostError, HostOp};
use xbgp_driver::xbgp_glue::{Access, AttrStore, XbgpCtx};
use xbgp_wire::attr::Origin;
use xbgp_wire::{AsPath, AsSegment, PathAttr};

fn arb_as_path() -> impl Strategy<Value = AsPath> {
    proptest::collection::vec(
        prop_oneof![
            proptest::collection::vec(1u32..1_000_000, 1..6).prop_map(AsSegment::Sequence),
            proptest::collection::vec(1u32..1_000_000, 1..4).prop_map(AsSegment::Set),
        ],
        0..3,
    )
    .prop_map(|segments| AsPath { segments })
}

/// A well-formed attribute vector (mandatory attributes present, no
/// duplicates — the representations may canonicalize duplicates
/// differently, which the wire codec already rejects upstream).
fn arb_attrs() -> impl Strategy<Value = Vec<PathAttr>> {
    (
        prop_oneof![Just(Origin::Igp), Just(Origin::Egp), Just(Origin::Incomplete)],
        arb_as_path(),
        any::<u32>(),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u32>()),
        proptest::collection::vec(any::<u32>(), 0..5),
        proptest::option::of(any::<u32>()),
        proptest::collection::vec(any::<u32>(), 0..4),
        proptest::option::of((11u8..=200, proptest::collection::vec(any::<u8>(), 0..32))),
    )
        .prop_map(|(origin, path, nh, med, lp, comms, orig_id, cluster, unknown)| {
            let mut attrs =
                vec![PathAttr::Origin(origin), PathAttr::AsPath(path), PathAttr::NextHop(nh)];
            if let Some(m) = med {
                attrs.push(PathAttr::Med(m));
            }
            if let Some(l) = lp {
                attrs.push(PathAttr::LocalPref(l));
            }
            if !comms.is_empty() {
                attrs.push(PathAttr::Communities(comms));
            }
            if let Some(o) = orig_id {
                attrs.push(PathAttr::OriginatorId(o));
            }
            if !cluster.is_empty() {
                attrs.push(PathAttr::ClusterList(cluster));
            }
            if let Some((code, value)) = unknown {
                attrs.push(PathAttr::Unknown {
                    flags: xbgp_wire::AttrFlags::OPT_TRANS,
                    code,
                    value,
                });
            }
            attrs
        })
}

/// One write through the neutral API.
#[derive(Debug, Clone)]
enum Op {
    Set { code: u8, flags: u8, value: Vec<u8> },
    Unset(u8),
}

/// The codes both daemons model natively, plus a few extension codes
/// (few, so writes and removals hit codes already present). 6 and 7 are
/// left out for the reason `arb_attrs` leaves them out: FIR ignores
/// ATOMIC_AGGREGATE and AGGREGATOR where WREN keeps them.
fn arb_code() -> impl Strategy<Value = u8> {
    prop_oneof![
        prop_oneof![Just(1u8), Just(2), Just(3), Just(4), Just(5), Just(8), Just(9), Just(10)],
        11u8..=14,
        11u8..=200,
    ]
}

/// Half the time a payload that is well-formed for `code` (for
/// COMMUNITIES and CLUSTER_LIST that includes the empty one), half the
/// time a few raw bytes, which for most codes is not.
fn arb_value(code: u8) -> impl Strategy<Value = Vec<u8>> {
    let words = |n| {
        proptest::collection::vec(any::<u32>(), n)
            .prop_map(|ws| ws.iter().flat_map(|w| w.to_be_bytes()).collect::<Vec<u8>>())
    };
    let well_formed = match code {
        1 => (0u8..3).prop_map(|o| vec![o]).boxed(),
        2 => arb_as_path()
            .prop_map(|p| {
                let mut body = Vec::new();
                p.encode_body(&mut body, 4);
                body
            })
            .boxed(),
        3..=5 | 9 => words(1..2).boxed(),
        8 | 10 => words(0..4).boxed(),
        _ => proptest::collection::vec(any::<u8>(), 0..32).boxed(),
    };
    prop_oneof![well_formed, proptest::collection::vec(any::<u8>(), 0..10)]
}

fn arb_op() -> impl Strategy<Value = Op> {
    let set = || {
        arb_code()
            .prop_flat_map(|code| (Just(code), any::<u8>(), arb_value(code)))
            .prop_map(|(code, flags, value)| Op::Set { code, flags, value })
    };
    prop_oneof![
        set(),
        set(),
        // ORIGIN, AS_PATH and NEXT_HOP never reach a store's `drop_attr`:
        // the context refuses them first.
        arb_code().prop_map(|code| Op::Unset(code.max(4))),
    ]
}

/// Everything a program or the encoder can observe of the two stores.
fn check_same_view(fir: &FirAttrs, wren: &EaList) -> Result<(), TestCaseError> {
    fn view(attrs: &impl AttrStore, code: u8) -> Option<(u8, Vec<u8>)> {
        let mut payload = Vec::new();
        attrs.attr_into(code, &mut payload).map(|flags| (flags, payload))
    }
    for code in 1u8..=200 {
        let (f, w) = (view(fir, code), view(wren, code));
        prop_assert_eq!(&f, &w, "attribute code {}", code);
        prop_assert_eq!(fir.has_attr(code), f.is_some(), "fir has_attr({})", code);
        prop_assert_eq!(wren.has_attr(code), w.is_some(), "wren has_attr({})", code);
    }
    prop_assert_eq!(fir.nexthop(), wren.nexthop());
    let (mut f, mut w) = (fir.to_wire(), wren.to_wire());
    f.sort_by_key(PathAttr::code);
    w.sort_by_key(PathAttr::code);
    prop_assert_eq!(f, w);
    Ok(())
}

proptest! {
    /// Both representations re-encode the natively understood attributes
    /// to the same typed set (ordering canonicalized by attribute code).
    #[test]
    fn to_wire_agrees(attrs in arb_attrs()) {
        let fir = FirAttrs::from_wire(&attrs).expect("fir parses");
        let wren = EaList::from_wire(&attrs).expect("wren parses");
        let mut f = fir.to_wire();
        let mut w = wren.to_wire();
        f.sort_by_key(PathAttr::code);
        w.sort_by_key(PathAttr::code);
        prop_assert_eq!(f, w);
    }

    /// The two attribute stores are one store to a program: starting from
    /// the same wire attributes, any sequence of `set_attr` / `remove_attr`
    /// — natively modelled codes and extension codes, well-formed and
    /// malformed payloads, arbitrary flags — gets the same `Result` from
    /// both, leaves every code with the same `(flags, payload)` view (the
    /// bytes extension code actually sees) and re-encodes to the same
    /// wire attributes, after every step. A refused write changes nothing.
    #[test]
    fn attr_store_ops_agree(
        attrs in arb_attrs(),
        ops in proptest::collection::vec(arb_op(), 0..12),
    ) {
        let mut fir = FirAttrs::from_wire(&attrs).expect("fir parses");
        let mut wren = EaList::from_wire(&attrs).expect("wren parses");
        check_same_view(&fir, &wren)?;
        for op in ops {
            let before = (fir.clone(), wren.clone());
            match &op {
                Op::Set { code, flags, value } => {
                    let f = fir.store_attr(*code, *flags, value);
                    let w = wren.store_attr(*code, *flags, value);
                    prop_assert_eq!(&f, &w, "{:?}", op);
                    if f.is_err() {
                        prop_assert_eq!((&fir, &wren), (&before.0, &before.1), "{:?}", op);
                    }
                }
                Op::Unset(code) => {
                    prop_assert_eq!(fir.drop_attr(*code), wren.drop_attr(*code), "{:?}", op);
                }
            }
            check_same_view(&fir, &wren)?;
        }
    }

    /// Decision-relevant accessors agree: hop count, origin ASN, loop
    /// detection — the inputs to best-path selection.
    #[test]
    fn decision_accessors_agree(attrs in arb_attrs(), probe: u32) {
        let fir = FirAttrs::from_wire(&attrs).expect("fir parses");
        let wren = EaList::from_wire(&attrs).expect("wren parses");
        prop_assert_eq!(fir.as_path.hop_count(), wren.as_path_hops());
        prop_assert_eq!(fir.as_path.origin_asn(), wren.origin_asn());
        prop_assert_eq!(fir.as_path.contains(probe), wren.as_path_contains(probe));
        prop_assert_eq!(fir.med, wren.med());
        prop_assert_eq!(fir.local_pref, wren.local_pref());
        prop_assert_eq!(fir.originator_id, wren.originator_id());
        prop_assert_eq!(fir.cluster_list.clone(), wren.cluster_list());
    }

    /// eBGP export transforms agree: prepending the local ASN through
    /// FIR's typed path and WREN's raw in-place splice yields the same
    /// wire bytes.
    #[test]
    fn prepend_transforms_agree(attrs in arb_attrs(), asn in 1u32..100_000) {
        let fir = FirAttrs::from_wire(&attrs).expect("fir parses");
        let mut wren = EaList::from_wire(&attrs).expect("wren parses");
        let typed = fir.as_path.prepend(asn);
        wren.as_path_prepend(asn);
        prop_assert_eq!(typed, wren.as_path());
    }
}

/// A program's writes at a copy-on-write point (②), through the one
/// execution context, over either store: what it left in the copy and
/// how MED and an extension attribute read back to it.
type CowWrites<A> = (Option<A>, [Option<(u8, Vec<u8>)>; 2]);

fn cow_writes<A: AttrStore>(base: &A) -> CowWrites<A> {
    let (mut modified, mut rib_adds, mut logs) = (None, Vec::new(), Vec::new());
    let mut ctx = XbgpCtx {
        peer: PeerInfo {
            router_id: 1,
            asn: 65001,
            peer_type: PeerType::Ebgp,
            local_router_id: 2,
            local_asn: 65000,
            flags: 0,
        },
        args: &[],
        attrs: Access::Cow { base, modified: &mut modified },
        prefix: None,
        nexthop: None,
        xtra: &[],
        out_buf: None,
        rov: None,
        rib_adds: &mut rib_adds,
        logs: &mut logs,
    };
    // Reads and stage-time checks leave the shared set alone.
    assert_eq!(ctx.get_attr(4), Some((0x80, 5u32.to_be_bytes().to_vec())));
    let short_med = HostOp::SetAttr { code: 4, flags: 0x80, value: &[1, 2, 3] };
    assert!(matches!(ctx.check_op(&short_med), Err(HostError::BadAttrValue { code: 4, .. })));
    assert!(matches!(&ctx.attrs, Access::Cow { modified, .. } if modified.is_none()));
    // A store refuses what `check_op` refuses, should it ever get there.
    let refused = ctx.set_attr(4, 0x80, &[1, 2, 3]);
    assert!(matches!(refused, Err(HostError::BadAttrValue { code: 4, .. })));
    // MED written as well-known transitive (0x40).
    ctx.set_attr(4, 0x40, &7u32.to_be_bytes()).unwrap();
    ctx.set_attr(66, 0xc0, &[1, 2]).unwrap();
    assert_eq!(ctx.remove_attr(5), Err(HostError::AttrNotPresent { code: 5 }));
    let view = [ctx.get_attr(4), ctx.get_attr(66)];
    (modified, view)
}

/// The shared context behaves the same over both stores: the first write
/// clones, the base every other route shares is untouched, a malformed
/// payload is `BadAttrValue`, and a natively modelled attribute reads
/// back with its canonical flags whatever flags it was written with
/// (WREN used to keep — and FIR to ignore — the caller's).
#[test]
fn context_writes_agree_on_both_stores() {
    let wire = [
        PathAttr::Origin(Origin::Igp),
        PathAttr::AsPath(AsPath::sequence(vec![65001])),
        PathAttr::NextHop(1),
        PathAttr::Med(5),
    ];
    let fir = FirAttrs::from_wire(&wire).unwrap();
    let wren = EaList::from_wire(&wire).unwrap();
    let (fir_copy, fir_view) = cow_writes(&fir);
    let (wren_copy, wren_view) = cow_writes(&wren);
    assert_eq!(fir_view, wren_view);
    assert_eq!(
        fir_view,
        [Some((0x80, 7u32.to_be_bytes().to_vec())), Some((0xc0, vec![1, 2]))],
        "MED is optional non-transitive"
    );
    assert_eq!(
        (fir.to_wire(), wren.to_wire()),
        (wire.to_vec(), wire.to_vec()),
        "bases untouched"
    );
    let rewritten = [&wire[..3], &[PathAttr::Med(7)]].concat();
    assert_eq!(fir_copy.unwrap().to_wire(), rewritten);
    assert_eq!(wren_copy.unwrap().to_wire(), rewritten);
}
