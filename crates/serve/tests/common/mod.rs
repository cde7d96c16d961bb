//! Test data for the serve tests; the peers they drive are
//! [`xbgp_serve::peer::Peer`]s.
#![allow(dead_code)]

use std::time::Duration;

use xbgp_wire::attr::Origin;
use xbgp_wire::{AsPath, Ipv4Prefix, Message, PathAttr, UpdateMsg};

/// How long any wait in a test may take before it is a failure.
pub const PATIENCE: Duration = Duration::from_secs(60);

/// The `i`-th test prefix: distinct /24s under 10.0.0.0/8.
pub fn prefix(i: u32) -> Ipv4Prefix {
    Ipv4Prefix::new(0x0a00_0000 + (i << 8), 24)
}

/// One UPDATE frame announcing [`prefix`]`(i)` with an attribute set no
/// other `i` shares (so exports cannot be packed together), carrying
/// `communities` extra 4-byte communities to give the frame bulk.
pub fn announce(i: u32, communities: usize) -> Vec<u8> {
    let mut attrs = vec![
        PathAttr::Origin(Origin::Igp),
        PathAttr::AsPath(AsPath::sequence(vec![65001, 100_000 + i])),
        PathAttr::NextHop(1),
    ];
    if communities > 0 {
        attrs.push(PathAttr::Communities((0..communities as u32).map(|c| (i << 12) | c).collect()));
    }
    Message::Update(UpdateMsg::announce(attrs, vec![prefix(i)]))
        .encode(4)
        .expect("UPDATE encodes")
}
