//! Property tests for the chunk decomposition (`mpa_config::chunk`): over
//! arbitrary mutation sequences in both dialects,
//!
//! * concatenating `render_chunk` over `chunk_keys` equals `render_config`
//!   byte for byte (the two paths share the per-chunk renderers, so this
//!   pins the enumeration order and exhaustiveness);
//! * `chunk_keys` stays strictly sorted (document order = key order);
//! * re-rendering only the chunks the `mark_*` helpers flag for each edit
//!   — the delta-native generator's exact bookkeeping — reproduces the
//!   full render (i.e. the dirty sets are *complete*; over-approximation
//!   is allowed, under-approximation would desynchronize delta-native
//!   generation).

use mpa_config::chunk::{self, chunk_keys, render_chunk, ChunkKey};
use mpa_config::render::render_config;
use mpa_config::semantic::{AclRule, DeviceConfig};
use mpa_model::device::Dialect;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// One step of an arbitrary edit script. Mirrors the op mix of the
/// simulator (`mpa_synth::ops::apply_op`) including the item-creating
/// variants, with small item spaces so creations, edits and deletions of
/// the *same* item happen often.
#[derive(Debug, Clone)]
enum Edit {
    Describe(u16, u8),
    Mtu(u16, bool),
    AssignVlan(u16, u16),
    RemoveVlan(u16),
    AclRule(u8, u16, bool),
    AclApply(u16, u8),
    PoolMember(u8, u8, bool),
    User(u8, bool),
    Bgp(u8, bool),
    Ospf(u8),
    Sflow(u16),
    Qos(u8),
    Enabled(u16, bool),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    let port = 1u16..6;
    prop_oneof![
        (port.clone(), 0u8..=255).prop_map(|(p, d)| Edit::Describe(p, d)),
        (port.clone(), any::<bool>()).prop_map(|(p, up)| Edit::Mtu(p, up)),
        (port.clone(), 10u16..14).prop_map(|(p, v)| Edit::AssignVlan(p, v)),
        (10u16..14).prop_map(Edit::RemoveVlan),
        (0u8..3, 1u16..1024, any::<bool>()).prop_map(|(a, pt, ok)| Edit::AclRule(a, pt, ok)),
        (port.clone(), 0u8..3).prop_map(|(p, a)| Edit::AclApply(p, a)),
        (0u8..2, 0u8..4, any::<bool>()).prop_map(|(pl, m, add)| Edit::PoolMember(pl, m, add)),
        (0u8..3, any::<bool>()).prop_map(|(u, add)| Edit::User(u, add)),
        (0u8..3, any::<bool>()).prop_map(|(n, add)| Edit::Bgp(n, add)),
        (0u8..4).prop_map(Edit::Ospf),
        (256u16..4096).prop_map(Edit::Sflow),
        (0u8..64).prop_map(Edit::Qos),
        (port, any::<bool>()).prop_map(|(p, e)| Edit::Enabled(p, e)),
    ]
}

/// Apply one edit, inserting the affected chunk keys into `dirty` via the
/// same `mark_*` calls the simulator makes.
fn apply_edit(cfg: &mut DeviceConfig, e: &Edit, dirty: &mut BTreeSet<ChunkKey>) {
    let d = cfg.dialect;
    match e {
        Edit::Describe(p, txt) => {
            cfg.set_description(*p, format!("desc {txt}"));
            chunk::mark_iface(d, *p, dirty);
        }
        Edit::Mtu(p, up) => {
            cfg.set_mtu(*p, if *up { 9000 } else { 1500 });
            chunk::mark_iface(d, *p, dirty);
        }
        Edit::AssignVlan(p, v) => {
            let old = cfg.interfaces.get(p).and_then(|i| i.access_vlan);
            cfg.assign_interface_vlan(*p, *v);
            chunk::mark_iface(d, *p, dirty);
            chunk::mark_vlan(d, *v, dirty);
            if let Some(old) = old {
                chunk::mark_vlan(d, old, dirty);
            }
        }
        Edit::RemoveVlan(v) => {
            let members = cfg.vlan_members(*v);
            cfg.remove_vlan(*v);
            chunk::mark_vlan(d, *v, dirty);
            for p in members {
                chunk::mark_iface(d, p, dirty);
            }
        }
        Edit::AclRule(a, port, permit) => {
            let name = format!("acl{a}");
            cfg.acl_add_rule(
                &name,
                AclRule { permit: *permit, protocol: "tcp".into(), port: *port },
            );
            chunk::mark_acl(d, &name, dirty);
        }
        Edit::AclApply(p, a) => {
            let name = format!("acl{a}");
            cfg.acl_add_rule(&name, AclRule { permit: true, protocol: "udp".into(), port: 53 });
            chunk::mark_acl(d, &name, dirty);
            cfg.apply_acl(*p, &name);
            chunk::mark_iface(d, *p, dirty);
        }
        Edit::PoolMember(pl, m, add) => {
            let name = format!("pool{pl}");
            cfg.add_pool(&name, "http");
            let member = format!("10.0.0.{m}:80");
            if *add {
                cfg.pool_add_member(&name, &member);
            } else {
                cfg.pool_remove_member(&name, &member);
            }
            chunk::mark_pool(d, &name, dirty);
        }
        Edit::User(u, add) => {
            let name = format!("user{u}");
            if *add {
                cfg.add_user(&name, "operator");
            } else {
                cfg.remove_user(&name);
            }
            chunk::mark_user(d, &name, dirty);
        }
        Edit::Bgp(n, add) => {
            let ip = format!("10.9.0.{n}");
            if *add {
                cfg.bgp_add_neighbor(65000, &ip, 65001 + *n as u32);
            } else {
                cfg.bgp_remove_neighbor(&ip);
            }
            chunk::mark_bgp(d, dirty);
        }
        Edit::Ospf(n) => {
            cfg.ospf_advertise(1, &format!("10.{n}.0.0/16"));
            chunk::mark_ospf(d, dirty);
        }
        Edit::Sflow(rate) => {
            cfg.set_sflow("192.0.2.9", *rate as u32);
            chunk::mark_sflow(d, dirty);
        }
        Edit::Qos(dscp) => {
            cfg.set_qos_class("voice", *dscp % 64);
            chunk::mark_qos(d, "voice", dirty);
        }
        Edit::Enabled(p, en) => {
            cfg.set_enabled(*p, *en);
            chunk::mark_iface(d, *p, dirty);
        }
    }
}

fn concat_chunks(cfg: &DeviceConfig) -> String {
    let mut out = String::new();
    for key in chunk_keys(cfg) {
        render_chunk(cfg, &key, &mut out);
    }
    out
}

/// The live-document model the delta generator maintains: a sorted map of
/// chunk key → current text, updated by re-rendering dirty keys only.
fn flush(cfg: &DeviceConfig, dirty: &mut BTreeSet<ChunkKey>, doc: &mut BTreeMap<ChunkKey, String>) {
    for key in std::mem::take(dirty) {
        let mut text = String::new();
        render_chunk(cfg, &key, &mut text);
        if text.is_empty() {
            doc.remove(&key);
        } else {
            doc.insert(key, text);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn chunk_concat_and_dirty_tracking_match_full_render(
        dialect_brace in any::<bool>(),
        edits in proptest::collection::vec(arb_edit(), 0..40),
    ) {
        let dialect = if dialect_brace { Dialect::BraceHierarchy } else { Dialect::BlockKeyword };
        let mut cfg = DeviceConfig::new("prop-dev", dialect);

        // Live document seeded from the initial full decomposition.
        let mut doc: BTreeMap<ChunkKey, String> = BTreeMap::new();
        let mut dirty: BTreeSet<ChunkKey> = chunk_keys(&cfg).into_iter().collect();
        flush(&cfg, &mut dirty, &mut doc);

        for edit in &edits {
            apply_edit(&mut cfg, edit, &mut dirty);

            // Enumeration stays sorted and exhaustive after every edit.
            let keys = chunk_keys(&cfg);
            prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "chunk_keys not sorted");
            let full = render_config(&cfg);
            prop_assert_eq!(&concat_chunks(&cfg), &full, "chunk concat != full render");

            // Dirty-tracked incremental document equals the full render.
            flush(&cfg, &mut dirty, &mut doc);
            let incremental: String = doc.values().map(String::as_str).collect();
            prop_assert_eq!(&incremental, &full, "dirty set was incomplete for {:?}", edit);

            // Self-delimitation: non-empty chunks end with one newline and
            // contain no blank lines, so per-chunk splitting is safe.
            for text in doc.values() {
                prop_assert!(text.ends_with('\n'));
                prop_assert!(!text.contains("\n\n"));
            }
        }
    }
}
