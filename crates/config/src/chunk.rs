//! Stable chunk decomposition of rendered configs.
//!
//! A *chunk* is the smallest unit of config text the delta-native generator
//! re-renders when an op touches a device: one top-level stanza in the
//! block-keyword dialect, or one stanza / wrapper line in the brace dialect
//! (`interfaces {`, a single interface body, `}`, …). The decomposition is
//! exhaustive and ordered: concatenating `render_chunk` over `chunk_keys`
//! reproduces [`crate::render::render_config`] byte-for-byte, because both
//! paths call the *same* per-chunk renderers in `crate::render` — there is
//! no second rendering implementation to drift.
//!
//! Invariants the generator relies on (asserted by the tests here and the
//! property suite in `tests/proptest_chunks.rs`):
//!
//! * **Exhaustive, ordered**: `chunk_keys` is sorted by `ChunkKey`'s derived
//!   `Ord`, and that order *is* document order. Flushing dirty chunks in
//!   sorted order therefore interns new lines in the same order a full
//!   render would — the foundation of delta-native ≡ full-render
//!   generation.
//! * **Self-delimited**: every non-empty chunk ends with exactly one `\n`
//!   and contains no blank lines, so splitting per-chunk and splitting the
//!   concatenated document yield the same line sequence.
//! * **Absent renders empty**: rendering a key whose item no longer exists
//!   (deleted vlan, removed user) appends nothing, which is how deletions
//!   flow through the same path as edits.
//!
//! The `mark_*` helpers translate a semantic edit ("interface 3 changed")
//! into the set of chunk keys whose text may have changed, *including* the
//! dialect-specific wrapper lines (adding the first ACL in the brace dialect
//! materializes `firewall {` / `}`). Over-approximation is safe — an
//! unchanged chunk re-renders to identical text and hits the render cache —
//! but under-approximation would silently desynchronize delta mode, so the
//! helpers err on the side of marking wrappers whenever membership of the
//! wrapped collection may have changed.

use crate::render::{block_keyword as bk, brace_hierarchy as bh};
use crate::semantic::DeviceConfig;
use mpa_model::device::Dialect;
use std::collections::BTreeSet;

/// Per-rank payload distinguishing sibling chunks (the vlan id, the acl
/// name). Singleton chunks use `None`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChunkItem {
    /// Singleton chunk (hostname, wrappers, feature blocks).
    None,
    /// Numeric item: a vlan id or interface port.
    Num(u16),
    /// Named item: a user, ACL, QoS class or pool name.
    Name(String),
}

/// Identity of one chunk within a device document. The derived `Ord`
/// (rank-major, then item) is document order within a dialect: ranks are
/// assigned in the order the dialect's `render` emits chunks, and sibling
/// items are emitted in BTree (= `ChunkItem` `Ord`) order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkKey {
    /// Position of the chunk's stanza class in the dialect's document
    /// order (see `rk_bk` / `rk_bh`).
    pub rank: u16,
    /// Which sibling within the rank (vlan id, ACL name, …).
    pub item: ChunkItem,
}

impl ChunkKey {
    fn bare(rank: u16) -> Self {
        ChunkKey { rank, item: ChunkItem::None }
    }

    fn num(rank: u16, n: u16) -> Self {
        ChunkKey { rank, item: ChunkItem::Num(n) }
    }

    fn name(rank: u16, s: &str) -> Self {
        ChunkKey { rank, item: ChunkItem::Name(s.to_owned()) }
    }
}

/// Block-keyword dialect ranks, in document order.
mod rk_bk {
    pub const HOSTNAME: u16 = 0;
    pub const NTP: u16 = 1;
    pub const SNMP: u16 = 2;
    pub const USER: u16 = 3;
    pub const SFLOW: u16 = 4;
    pub const FEATURES: u16 = 5;
    pub const VLAN: u16 = 6;
    pub const ACL: u16 = 7;
    pub const QOS: u16 = 8;
    pub const IFACE: u16 = 9;
    pub const OSPF: u16 = 10;
    pub const BGP: u16 = 11;
    pub const POOL: u16 = 12;
}

/// Brace-hierarchy dialect ranks, in document order. Wrapper lines
/// (`interfaces {` … `}`) are chunks of their own so that membership
/// changes of the wrapped collection stay local.
mod rk_bh {
    pub const SYSTEM: u16 = 0;
    pub const SNMP: u16 = 1;
    pub const IF_OPEN: u16 = 2;
    pub const IFACE: u16 = 3;
    pub const IF_CLOSE: u16 = 4;
    pub const VL_OPEN: u16 = 5;
    pub const VLAN: u16 = 6;
    pub const VL_CLOSE: u16 = 7;
    pub const FW_OPEN: u16 = 8;
    pub const ACL: u16 = 9;
    pub const FW_CLOSE: u16 = 10;
    pub const COS_OPEN: u16 = 11;
    pub const QOS: u16 = 12;
    pub const COS_CLOSE: u16 = 13;
    pub const PROTO_OPEN: u16 = 14;
    pub const OSPF: u16 = 15;
    pub const BGP: u16 = 16;
    pub const RSTP: u16 = 17;
    pub const LACP: u16 = 18;
    pub const UDLD: u16 = 19;
    pub const SFLOW: u16 = 20;
    pub const PROTO_CLOSE: u16 = 21;
    pub const FWD: u16 = 22;
    pub const LB_OPEN: u16 = 23;
    pub const POOL: u16 = 24;
    pub const LB_CLOSE: u16 = 25;
}

/// Every chunk of `cfg`'s document, in document order (sorted by key).
/// Singleton chunks are always present even when they currently render
/// empty; item-keyed chunks are enumerated from the live collections.
pub fn chunk_keys(cfg: &DeviceConfig) -> Vec<ChunkKey> {
    let mut keys = Vec::with_capacity(
        16 + cfg.users.len()
            + cfg.vlans.len()
            + cfg.acls.len()
            + cfg.qos.len()
            + cfg.interfaces.len()
            + cfg.pools.len(),
    );
    match cfg.dialect {
        Dialect::BlockKeyword => {
            use rk_bk::*;
            keys.push(ChunkKey::bare(HOSTNAME));
            keys.push(ChunkKey::bare(NTP));
            keys.push(ChunkKey::bare(SNMP));
            for name in cfg.users.keys() {
                keys.push(ChunkKey::name(USER, name));
            }
            keys.push(ChunkKey::bare(SFLOW));
            keys.push(ChunkKey::bare(FEATURES));
            for &id in cfg.vlans.keys() {
                keys.push(ChunkKey::num(VLAN, id));
            }
            for name in cfg.acls.keys() {
                keys.push(ChunkKey::name(ACL, name));
            }
            for name in cfg.qos.keys() {
                keys.push(ChunkKey::name(QOS, name));
            }
            for &port in cfg.interfaces.keys() {
                keys.push(ChunkKey::num(IFACE, port));
            }
            keys.push(ChunkKey::bare(OSPF));
            keys.push(ChunkKey::bare(BGP));
            for name in cfg.pools.keys() {
                keys.push(ChunkKey::name(POOL, name));
            }
        }
        Dialect::BraceHierarchy => {
            use rk_bh::*;
            keys.push(ChunkKey::bare(SYSTEM));
            keys.push(ChunkKey::bare(SNMP));
            keys.push(ChunkKey::bare(IF_OPEN));
            for &port in cfg.interfaces.keys() {
                keys.push(ChunkKey::num(IFACE, port));
            }
            keys.push(ChunkKey::bare(IF_CLOSE));
            keys.push(ChunkKey::bare(VL_OPEN));
            for &id in cfg.vlans.keys() {
                keys.push(ChunkKey::num(VLAN, id));
            }
            keys.push(ChunkKey::bare(VL_CLOSE));
            keys.push(ChunkKey::bare(FW_OPEN));
            for name in cfg.acls.keys() {
                keys.push(ChunkKey::name(ACL, name));
            }
            keys.push(ChunkKey::bare(FW_CLOSE));
            keys.push(ChunkKey::bare(COS_OPEN));
            for name in cfg.qos.keys() {
                keys.push(ChunkKey::name(QOS, name));
            }
            keys.push(ChunkKey::bare(COS_CLOSE));
            keys.push(ChunkKey::bare(PROTO_OPEN));
            keys.push(ChunkKey::bare(OSPF));
            keys.push(ChunkKey::bare(BGP));
            keys.push(ChunkKey::bare(RSTP));
            keys.push(ChunkKey::bare(LACP));
            keys.push(ChunkKey::bare(UDLD));
            keys.push(ChunkKey::bare(SFLOW));
            keys.push(ChunkKey::bare(PROTO_CLOSE));
            keys.push(ChunkKey::bare(FWD));
            keys.push(ChunkKey::bare(LB_OPEN));
            for name in cfg.pools.keys() {
                keys.push(ChunkKey::name(POOL, name));
            }
            keys.push(ChunkKey::bare(LB_CLOSE));
        }
    }
    debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "chunk_keys must be strictly sorted");
    keys
}

/// Append the current text of one chunk to `out` (does NOT clear it).
/// A key whose item no longer exists appends nothing.
pub fn render_chunk(cfg: &DeviceConfig, key: &ChunkKey, out: &mut String) {
    match cfg.dialect {
        Dialect::BlockKeyword => {
            use rk_bk::*;
            match (key.rank, &key.item) {
                (HOSTNAME, _) => bk::hostname(cfg, out),
                (NTP, _) => bk::ntp(cfg, out),
                (SNMP, _) => bk::snmp(cfg, out),
                (USER, ChunkItem::Name(n)) => bk::user(cfg, n, out),
                (SFLOW, _) => bk::sflow(cfg, out),
                (FEATURES, _) => bk::features(cfg, out),
                (VLAN, ChunkItem::Num(id)) => bk::vlan(cfg, *id, out),
                (ACL, ChunkItem::Name(n)) => bk::acl(cfg, n, out),
                (QOS, ChunkItem::Name(n)) => bk::qos(cfg, n, out),
                (IFACE, ChunkItem::Num(p)) => bk::iface(cfg, *p, out),
                (OSPF, _) => bk::ospf(cfg, out),
                (BGP, _) => bk::bgp(cfg, out),
                (POOL, ChunkItem::Name(n)) => bk::pool(cfg, n, out),
                // mpa-lint: allow(R7) -- keys come only from this module's mark_* constructors; the arm is exhaustiveness bookkeeping
                _ => unreachable!("malformed block-keyword chunk key {key:?}"),
            }
        }
        Dialect::BraceHierarchy => {
            use rk_bh::*;
            match (key.rank, &key.item) {
                (SYSTEM, _) => bh::system(cfg, out),
                (SNMP, _) => bh::snmp(cfg, out),
                (IF_OPEN, _) => bh::if_open(cfg, out),
                (IFACE, ChunkItem::Num(p)) => bh::iface(cfg, *p, out),
                (IF_CLOSE, _) => bh::if_close(cfg, out),
                (VL_OPEN, _) => bh::vl_open(cfg, out),
                (VLAN, ChunkItem::Num(id)) => bh::vlan(cfg, *id, out),
                (VL_CLOSE, _) => bh::vl_close(cfg, out),
                (FW_OPEN, _) => bh::fw_open(cfg, out),
                (ACL, ChunkItem::Name(n)) => bh::acl(cfg, n, out),
                (FW_CLOSE, _) => bh::fw_close(cfg, out),
                (COS_OPEN, _) => bh::cos_open(cfg, out),
                (QOS, ChunkItem::Name(n)) => bh::qos(cfg, n, out),
                (COS_CLOSE, _) => bh::cos_close(cfg, out),
                (PROTO_OPEN, _) => bh::proto_open(cfg, out),
                (OSPF, _) => bh::ospf(cfg, out),
                (BGP, _) => bh::bgp(cfg, out),
                (RSTP, _) => bh::rstp(cfg, out),
                (LACP, _) => bh::lacp(cfg, out),
                (UDLD, _) => bh::udld(cfg, out),
                (SFLOW, _) => bh::sflow(cfg, out),
                (PROTO_CLOSE, _) => bh::proto_close(cfg, out),
                (FWD, _) => bh::fwd(cfg, out),
                (LB_OPEN, _) => bh::lb_open(cfg, out),
                (POOL, ChunkItem::Name(n)) => bh::pool(cfg, n, out),
                (LB_CLOSE, _) => bh::lb_close(cfg, out),
                // mpa-lint: allow(R7) -- keys come only from this module's mark_* constructors; the arm is exhaustiveness bookkeeping
                _ => unreachable!("malformed brace-hierarchy chunk key {key:?}"),
            }
        }
    }
}

/// Mark the chunks affected by an edit to interface `port`.
pub fn mark_iface(dialect: Dialect, port: u16, dirty: &mut BTreeSet<ChunkKey>) {
    match dialect {
        Dialect::BlockKeyword => {
            dirty.insert(ChunkKey::num(rk_bk::IFACE, port));
        }
        Dialect::BraceHierarchy => {
            dirty.insert(ChunkKey::bare(rk_bh::IF_OPEN));
            dirty.insert(ChunkKey::num(rk_bh::IFACE, port));
            dirty.insert(ChunkKey::bare(rk_bh::IF_CLOSE));
        }
    }
}

/// Mark the chunks affected by a vlan's creation, deletion, or membership
/// change (member lists render inside the vlan stanza in the brace dialect).
pub fn mark_vlan(dialect: Dialect, id: u16, dirty: &mut BTreeSet<ChunkKey>) {
    match dialect {
        Dialect::BlockKeyword => {
            dirty.insert(ChunkKey::num(rk_bk::VLAN, id));
        }
        Dialect::BraceHierarchy => {
            dirty.insert(ChunkKey::bare(rk_bh::VL_OPEN));
            dirty.insert(ChunkKey::num(rk_bh::VLAN, id));
            dirty.insert(ChunkKey::bare(rk_bh::VL_CLOSE));
        }
    }
}

/// Mark the chunks affected by an ACL edit (creation included).
pub fn mark_acl(dialect: Dialect, name: &str, dirty: &mut BTreeSet<ChunkKey>) {
    match dialect {
        Dialect::BlockKeyword => {
            dirty.insert(ChunkKey::name(rk_bk::ACL, name));
        }
        Dialect::BraceHierarchy => {
            dirty.insert(ChunkKey::bare(rk_bh::FW_OPEN));
            dirty.insert(ChunkKey::name(rk_bh::ACL, name));
            dirty.insert(ChunkKey::bare(rk_bh::FW_CLOSE));
        }
    }
}

/// Mark the chunks affected by a QoS class edit.
pub fn mark_qos(dialect: Dialect, name: &str, dirty: &mut BTreeSet<ChunkKey>) {
    match dialect {
        Dialect::BlockKeyword => {
            dirty.insert(ChunkKey::name(rk_bk::QOS, name));
        }
        Dialect::BraceHierarchy => {
            dirty.insert(ChunkKey::bare(rk_bh::COS_OPEN));
            dirty.insert(ChunkKey::name(rk_bh::QOS, name));
            dirty.insert(ChunkKey::bare(rk_bh::COS_CLOSE));
        }
    }
}

/// Mark the chunks affected by adding/removing a user (the brace dialect
/// renders users inside the `system` block).
pub fn mark_user(dialect: Dialect, name: &str, dirty: &mut BTreeSet<ChunkKey>) {
    match dialect {
        Dialect::BlockKeyword => {
            dirty.insert(ChunkKey::name(rk_bk::USER, name));
        }
        Dialect::BraceHierarchy => {
            dirty.insert(ChunkKey::bare(rk_bh::SYSTEM));
        }
    }
}

/// Mark the chunks affected by a pool edit.
pub fn mark_pool(dialect: Dialect, name: &str, dirty: &mut BTreeSet<ChunkKey>) {
    match dialect {
        Dialect::BlockKeyword => {
            dirty.insert(ChunkKey::name(rk_bk::POOL, name));
        }
        Dialect::BraceHierarchy => {
            dirty.insert(ChunkKey::bare(rk_bh::LB_OPEN));
            dirty.insert(ChunkKey::name(rk_bh::POOL, name));
            dirty.insert(ChunkKey::bare(rk_bh::LB_CLOSE));
        }
    }
}

/// Mark the chunks affected by a BGP change (the brace `protocols` wrapper
/// may appear or vanish with it).
pub fn mark_bgp(dialect: Dialect, dirty: &mut BTreeSet<ChunkKey>) {
    match dialect {
        Dialect::BlockKeyword => {
            dirty.insert(ChunkKey::bare(rk_bk::BGP));
        }
        Dialect::BraceHierarchy => {
            dirty.insert(ChunkKey::bare(rk_bh::PROTO_OPEN));
            dirty.insert(ChunkKey::bare(rk_bh::BGP));
            dirty.insert(ChunkKey::bare(rk_bh::PROTO_CLOSE));
        }
    }
}

/// Mark the chunks affected by an OSPF change.
pub fn mark_ospf(dialect: Dialect, dirty: &mut BTreeSet<ChunkKey>) {
    match dialect {
        Dialect::BlockKeyword => {
            dirty.insert(ChunkKey::bare(rk_bk::OSPF));
        }
        Dialect::BraceHierarchy => {
            dirty.insert(ChunkKey::bare(rk_bh::PROTO_OPEN));
            dirty.insert(ChunkKey::bare(rk_bh::OSPF));
            dirty.insert(ChunkKey::bare(rk_bh::PROTO_CLOSE));
        }
    }
}

/// Mark the chunks affected by an sFlow tuning change.
pub fn mark_sflow(dialect: Dialect, dirty: &mut BTreeSet<ChunkKey>) {
    match dialect {
        Dialect::BlockKeyword => {
            dirty.insert(ChunkKey::bare(rk_bk::SFLOW));
        }
        Dialect::BraceHierarchy => {
            dirty.insert(ChunkKey::bare(rk_bh::PROTO_OPEN));
            dirty.insert(ChunkKey::bare(rk_bh::SFLOW));
            dirty.insert(ChunkKey::bare(rk_bh::PROTO_CLOSE));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::render_config;
    use crate::semantic::AclRule;

    fn sample(dialect: Dialect) -> DeviceConfig {
        let mut c = DeviceConfig::new("net0-sw-dev0", dialect);
        c.set_description(1, "link to net0-rtr-dev1");
        c.assign_interface_vlan(1, 10);
        c.assign_interface_vlan(2, 10);
        c.acl_add_rule("edge", AclRule { permit: true, protocol: "tcp".into(), port: 443 });
        c.apply_acl(1, "edge");
        c.bgp_add_neighbor(65001, "10.0.0.1", 65002);
        c.ospf_advertise(1, "10.0.0.0/8");
        c.add_pool("web", "http");
        c.pool_add_member("web", "192.168.1.10:443");
        c.add_user("ops1", "operator");
        c.features.spanning_tree = true;
        c.features.dhcp_relay = true;
        c.set_sflow("192.0.2.9", 2048);
        c.set_qos_class("voice", 46);
        c.ntp_servers.push("192.0.2.1".into());
        c.snmp_community = Some("public".into());
        c
    }

    fn concat_chunks(cfg: &DeviceConfig) -> String {
        let mut out = String::new();
        for key in chunk_keys(cfg) {
            render_chunk(cfg, &key, &mut out);
        }
        out
    }

    #[test]
    fn chunk_concat_equals_full_render() {
        for d in [Dialect::BlockKeyword, Dialect::BraceHierarchy] {
            let cfg = sample(d);
            assert_eq!(concat_chunks(&cfg), render_config(&cfg), "{d:?}");
            let empty = DeviceConfig::new("empty", d);
            assert_eq!(concat_chunks(&empty), render_config(&empty), "{d:?} empty");
        }
    }

    #[test]
    fn chunks_are_self_delimited() {
        // Every non-empty chunk ends with exactly one newline and contains
        // no blank interior lines — the property that makes per-chunk line
        // splitting equal whole-document line splitting.
        for d in [Dialect::BlockKeyword, Dialect::BraceHierarchy] {
            let cfg = sample(d);
            for key in chunk_keys(&cfg) {
                let mut text = String::new();
                render_chunk(&cfg, &key, &mut text);
                if text.is_empty() {
                    continue;
                }
                assert!(text.ends_with('\n'), "{d:?} {key:?} must end with newline");
                assert!(!text.contains("\n\n"), "{d:?} {key:?} has a blank line");
            }
        }
    }

    #[test]
    fn absent_items_render_empty() {
        let cfg = sample(Dialect::BlockKeyword);
        let mut out = String::new();
        render_chunk(&cfg, &ChunkKey::num(rk_bk::VLAN, 999), &mut out);
        render_chunk(&cfg, &ChunkKey::name(rk_bk::ACL, "nope"), &mut out);
        render_chunk(&cfg, &ChunkKey::num(rk_bk::IFACE, 999), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn mark_helpers_cover_membership_wrappers() {
        let mut dirty = BTreeSet::new();
        mark_acl(Dialect::BraceHierarchy, "edge", &mut dirty);
        assert!(dirty.contains(&ChunkKey::bare(rk_bh::FW_OPEN)));
        assert!(dirty.contains(&ChunkKey::bare(rk_bh::FW_CLOSE)));
        let mut dirty = BTreeSet::new();
        mark_bgp(Dialect::BraceHierarchy, &mut dirty);
        assert!(dirty.contains(&ChunkKey::bare(rk_bh::PROTO_OPEN)));
    }

    #[test]
    fn dirty_rerender_tracks_an_edit() {
        // Apply an edit, re-render only the marked chunks on top of the
        // unchanged ones, and compare against a full render.
        for d in [Dialect::BlockKeyword, Dialect::BraceHierarchy] {
            let mut cfg = sample(d);
            let before: std::collections::BTreeMap<ChunkKey, String> = chunk_keys(&cfg)
                .into_iter()
                .map(|k| {
                    let mut s = String::new();
                    render_chunk(&cfg, &k, &mut s);
                    (k, s)
                })
                .collect();

            let mut dirty = BTreeSet::new();
            let old = cfg.interfaces.get(&2).and_then(|i| i.access_vlan);
            cfg.assign_interface_vlan(2, 20);
            mark_iface(d, 2, &mut dirty);
            if let Some(v) = old {
                mark_vlan(d, v, &mut dirty);
            }
            mark_vlan(d, 20, &mut dirty);

            let mut chunks = before;
            for key in &dirty {
                let mut s = String::new();
                render_chunk(&cfg, key, &mut s);
                chunks.insert(key.clone(), s);
            }
            // Newly created items may introduce keys not present before.
            for key in chunk_keys(&cfg) {
                chunks.entry(key.clone()).or_insert_with(|| {
                    let mut s = String::new();
                    render_chunk(&cfg, &key, &mut s);
                    s
                });
            }
            let rebuilt: String = chunks.values().map(String::as_str).collect();
            assert_eq!(rebuilt, render_config(&cfg), "{d:?}");
        }
    }
}
