//! Configuration forensics: the inference substrate on its own.
//!
//! ```text
//! cargo run --release --example config_forensics
//! ```
//!
//! Shows what the paper's §2 pipeline actually does with raw data, on one
//! device: render → archive → diff successive snapshots → type changes
//! vendor-agnostically → group into change events → classify automation —
//! including the cross-vendor quirk where the *same* semantic operation is
//! an `interface` change on one vendor and a `vlan` change on another.

use mpa::config::semantic::{AclRule, DeviceConfig};
use mpa::config::snapshot::{Login, Snapshot, SnapshotMeta, UserDirectory};
use mpa::config::{parse_config, render_config, SnapshotArchive};
use mpa::metrics::{group_events, replay_device_changes};
use mpa::model::device::Dialect;
use mpa::model::{DeviceId, Timestamp};

fn snapshot(dev: u32, minute: u64, login: &str, cfg: &DeviceConfig) -> Snapshot {
    Snapshot {
        meta: SnapshotMeta {
            device: DeviceId(dev),
            time: Timestamp(minute),
            login: Login::new(login),
        },
        text: render_config(cfg),
    }
}

fn main() {
    let directory = UserDirectory::new(["svc-netauto".to_string()]);
    let mut archive = SnapshotArchive::new();

    // Two devices, one per dialect, starting from the same semantic state.
    let mut cisco_like = DeviceConfig::new("net0-sw-dev0", Dialect::BlockKeyword);
    let mut junos_like = DeviceConfig::new("net0-sw-dev1", Dialect::BraceHierarchy);
    for cfg in [&mut cisco_like, &mut junos_like] {
        cfg.assign_interface_vlan(1, 10);
        cfg.assign_interface_vlan(2, 20);
        cfg.acl_add_rule("edge", AclRule { permit: true, protocol: "tcp".into(), port: 443 });
    }
    archive.push(snapshot(0, 0, "alice", &cisco_like)).unwrap();
    archive.push(snapshot(1, 0, "alice", &junos_like)).unwrap();

    println!("--- rendered block-keyword config (excerpt) ---");
    for line in render_config(&cisco_like).lines().take(12) {
        println!("{line}");
    }
    println!("--- rendered brace-hierarchy config (excerpt) ---");
    for line in render_config(&junos_like).lines().take(12) {
        println!("{line}");
    }

    // The same semantic operation on both devices, 2 minutes apart — one
    // change event per the δ=5min heuristic.
    cisco_like.assign_interface_vlan(1, 20);
    archive.push(snapshot(0, 100, "svc-netauto", &cisco_like)).unwrap();
    junos_like.assign_interface_vlan(1, 20);
    archive.push(snapshot(1, 102, "svc-netauto", &junos_like)).unwrap();

    // An unrelated manual ACL edit much later: a separate event.
    cisco_like.acl_add_rule("edge", AclRule { permit: false, protocol: "udp".into(), port: 53 });
    archive.push(snapshot(0, 500, "bob", &cisco_like)).unwrap();

    // Inference: replay the archive.
    let mut changes = Vec::new();
    changes.extend(replay_device_changes(&archive, DeviceId(0), Dialect::BlockKeyword, &directory));
    changes.extend(replay_device_changes(&archive, DeviceId(1), Dialect::BraceHierarchy, &directory));

    println!("\n--- inferred device changes ---");
    for c in &changes {
        println!(
            "t+{:<4} {}  types={:?}  automated={}",
            c.time.0,
            c.device,
            c.types.iter().map(|t| t.label()).collect::<Vec<_>>(),
            c.automated,
        );
    }
    println!("\nnote the cross-vendor quirk (paper §2.2): the SAME operation — move port 1");
    println!("to VLAN 20 — is typed `iface` on the block-keyword device but `vlan` on the");
    println!("brace-hierarchy device, because a different stanza changed on the wire.");

    let events = group_events(&changes, 5);
    println!("\n--- change events (δ = 5 min) ---");
    for (i, e) in events.iter().enumerate() {
        println!(
            "event {}: {} devices, types {:?}, fully automated: {}",
            i + 1,
            e.n_devices(),
            e.types.iter().map(|t| t.label()).collect::<Vec<_>>(),
            e.automated,
        );
    }

    // And the structural facts the design metrics are built from.
    let text = render_config(&cisco_like);
    let parsed = parse_config(&text, Dialect::BlockKeyword).unwrap();
    let facts = mpa::config::facts::extract_facts(&parsed);
    println!(
        "\n--- extracted facts (block-keyword device) ---\n\
         interfaces: {}  vlans: {:?}  acl rules: {}  intra-device refs: {}",
        facts.iface_count, facts.vlan_ids, facts.acl_rule_count, facts.intra_refs
    );
}
