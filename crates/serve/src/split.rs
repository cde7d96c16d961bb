//! Split UPDATE frames across prefix-hash shards.
//!
//! Best-route selection is independent per prefix, so each shard core
//! owns the prefixes [`shard_of`] assigns it, and an UPDATE that touches
//! prefixes owned by different cores can be cut into one frame per core.
//! The attribute section is copied **verbatim** — the split must never
//! re-encode attributes, because the Loc-RIB parity checks compare
//! attribute bytes across transports and shard counts. Only the
//! withdrawn-routes and NLRI prefix runs are re-packed.

use xbgp_wire::msg::{deframe, frame, update_sections};
use xbgp_wire::{Ipv4Prefix, MsgType, WireError};

/// Which shard owns `prefix`, out of `shards` (at least 1).
///
/// FNV-1a over the prefix address and length: cheap, platform-stable,
/// and a pure function of the prefix — ownership does not depend on
/// arrival order, which is what makes shard placement deterministic.
pub fn shard_of(prefix: &Ipv4Prefix, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in prefix.addr().to_be_bytes().into_iter().chain([prefix.len()]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Cut one complete UPDATE frame into per-shard frames. Entry `k` is the
/// frame for shard `k`, or `None` when the UPDATE touches none of its
/// prefixes. `shards <= 1` returns the input untouched (bit-exact), so a
/// single-core run never re-frames anything.
///
/// A shard that only withdraws carries an empty attribute section; a
/// shard that announces carries the original attribute bytes unchanged.
pub fn split_update(frame_bytes: &[u8], shards: usize) -> Result<Vec<Option<Vec<u8>>>, WireError> {
    if shards <= 1 {
        return Ok(vec![Some(frame_bytes.to_vec())]);
    }
    let (ty, body) = deframe(frame_bytes)?;
    debug_assert_eq!(ty, MsgType::Update, "only UPDATE frames are sharded");
    let (withdrawn, attrs_raw, nlri) = update_sections(body)?;
    let withdrawn = Ipv4Prefix::decode_run(withdrawn)?;
    let nlri = Ipv4Prefix::decode_run(nlri)?;

    let mut wd_parts: Vec<Vec<Ipv4Prefix>> = vec![Vec::new(); shards];
    let mut nlri_parts: Vec<Vec<Ipv4Prefix>> = vec![Vec::new(); shards];
    for p in withdrawn {
        wd_parts[shard_of(&p, shards)].push(p);
    }
    for p in nlri {
        nlri_parts[shard_of(&p, shards)].push(p);
    }

    let mut out = Vec::with_capacity(shards);
    for k in 0..shards {
        if wd_parts[k].is_empty() && nlri_parts[k].is_empty() {
            out.push(None);
            continue;
        }
        let mut part = Vec::new();
        let mut wd = Vec::new();
        for p in &wd_parts[k] {
            p.encode(&mut wd);
        }
        part.extend_from_slice(&(wd.len() as u16).to_be_bytes());
        part.extend_from_slice(&wd);
        if nlri_parts[k].is_empty() {
            part.extend_from_slice(&0u16.to_be_bytes());
        } else {
            part.extend_from_slice(&(attrs_raw.len() as u16).to_be_bytes());
            part.extend_from_slice(attrs_raw);
            for p in &nlri_parts[k] {
                p.encode(&mut part);
            }
        }
        out.push(Some(frame(MsgType::Update, &part)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbgp_wire::{Message, UpdateMsg};

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let q = p("203.0.113.0/24");
        for shards in 1..=8 {
            let k = shard_of(&q, shards);
            assert!(k < shards);
            assert_eq!(k, shard_of(&q, shards), "pure function of the prefix");
        }
        assert_eq!(shard_of(&q, 1), 0);
    }

    #[test]
    fn single_shard_is_bit_exact_passthrough() {
        let f = Message::Update(UpdateMsg::withdraw(vec![p("10.0.0.0/24")])).encode(4).unwrap();
        let parts = split_update(&f, 1).unwrap();
        assert_eq!(parts, vec![Some(f)]);
    }

    #[test]
    fn split_partitions_prefixes_and_preserves_attr_bytes() {
        let routes = routegen::generate(&routegen::TableSpec::new(200, 3));
        let shards = 4;
        for u in routegen::to_updates(&routes, 1, None) {
            let original = Message::Update(u.clone()).encode(4).unwrap();
            let parts = split_update(&original, shards).unwrap();
            assert_eq!(parts.len(), shards);
            let mut seen = 0usize;
            for (k, part) in parts.iter().enumerate() {
                let Some(bytes) = part else { continue };
                let Message::Update(pu) = Message::decode(bytes, 4).unwrap() else {
                    panic!("split produced a non-UPDATE");
                };
                assert!(pu.withdrawn.iter().all(|q| shard_of(q, shards) == k));
                assert!(pu.nlri.iter().all(|q| shard_of(q, shards) == k));
                // Attribute section verbatim: decoded attrs identical.
                if !pu.nlri.is_empty() {
                    assert_eq!(pu.attrs, u.attrs);
                    let ob = xbgp_wire::UpdateMsg::attr_section(
                        xbgp_wire::msg::deframe(&original).unwrap().1,
                    )
                    .unwrap();
                    let pb = xbgp_wire::UpdateMsg::attr_section(
                        xbgp_wire::msg::deframe(bytes).unwrap().1,
                    )
                    .unwrap();
                    assert_eq!(ob, pb, "raw attribute bytes must survive the split");
                }
                seen += pu.withdrawn.len() + pu.nlri.len();
            }
            assert_eq!(seen, u.withdrawn.len() + u.nlri.len(), "no prefix lost or duplicated");
        }
    }

    #[test]
    fn withdraw_only_updates_split_without_attrs() {
        let prefixes: Vec<Ipv4Prefix> = (0..64u32)
            .map(|i| format!("10.{}.{}.0/24", i / 8, i % 8).parse().unwrap())
            .collect();
        let f = Message::Update(UpdateMsg::withdraw(prefixes.clone())).encode(4).unwrap();
        let parts = split_update(&f, 3).unwrap();
        let mut total = 0usize;
        for part in parts.into_iter().flatten() {
            let Message::Update(u) = Message::decode(&part, 4).unwrap() else {
                unreachable!()
            };
            assert!(u.attrs.is_empty() && u.nlri.is_empty());
            total += u.withdrawn.len();
        }
        assert_eq!(total, prefixes.len());
    }
}
