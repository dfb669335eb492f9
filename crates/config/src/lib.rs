//! # mpa-config — configuration substrate for Management Plane Analytics
//!
//! The paper infers operational practices from *device configuration
//! snapshots* (§2.1, data source 2): a network-management system archives a
//! device's configuration text every time the device reports a change, along
//! with metadata (timestamp and login). Practices are then inferred by
//! **parsing** the text (a Batfish extension in the paper) and **diffing**
//! successive snapshots at stanza granularity (§2.2).
//!
//! This crate provides that whole substrate:
//!
//! * [`semantic`] — [`semantic::DeviceConfig`]: the structured,
//!   vendor-neutral configuration state of a device, with semantic mutators
//!   (assign interface to VLAN, edit an ACL, resize a load-balancer pool, …)
//!   used by the operational simulator.
//! * [`render`] — deterministic rendering of a `DeviceConfig` to
//!   configuration *text* in one of two dialects: a flat, `!`-terminated
//!   block-keyword dialect (Cisco-IOS-flavoured) and a nested brace-hierarchy
//!   dialect (JunOS-flavoured).
//! * [`parse`] — the reverse direction: text → [`parse::ParsedConfig`], a
//!   stanza-level structural model. This is the only path the *inference*
//!   layer is allowed to use — it must work from the wire format, exactly as
//!   the paper's pipeline does.
//! * [`typemap`] — vendor-native stanza kinds mapped to a vendor-agnostic
//!   [`typemap::ChangeType`], including the paper's cross-vendor quirks
//!   (`ip access-list` vs `firewall filter`; interface-to-VLAN assignment
//!   typed as an *interface* change on one dialect and a *vlan* change on
//!   the other).
//! * [`diff`] — stanza-level diff between two parsed configs ("if at least
//!   one stanza differs, we count this as a configuration change").
//! * [`snapshot`] — snapshot value types with login metadata and the user
//!   directory that classifies logins as automation accounts.
//! * [`archive`] — the delta-encoded snapshot store: per-archive line
//!   interning, base-plus-deltas histories, exact bit-for-bit
//!   reconstruction.
//! * [`chunk`] — stable chunk decomposition of rendered documents: one key
//!   per stanza/wrapper, ordered like the document, with dirty-marking
//!   helpers. This is the substrate of delta-native *generation*: the
//!   simulator re-renders only dirty chunks.
//! * [`incremental`] — delta-native inference: an incremental stanza index
//!   over the archive's line-id deltas that derives `diff_configs`-
//!   equivalent change records while re-parsing only changed segments.
//! * [`facts`] — extraction of design-practice facts (VLAN counts, protocol
//!   sets, routing processes, intra-/inter-device references) from parsed
//!   configs.
//! * [`addr`] — the synthetic addressing scheme that lets inter-device
//!   references (BGP neighbor IPs) be resolved back to devices.

pub mod addr;
pub mod archive;
pub mod chunk;
pub mod diff;
pub mod error;
pub mod facts;
pub mod incremental;
pub mod parse;
pub mod render;
pub mod semantic;
pub mod snapshot;
pub mod typemap;

pub use archive::{
    ArchiveBuilder, DeltaCursor, DeltaRef, LineDelta, LineId, RenderCache, SnapshotArchive,
};
pub use diff::{diff_configs, ChangeAction, StanzaChange};
pub use error::ConfigError;
pub use facts::ConfigFacts;
pub use incremental::{DeltaInference, DeviceReplay, KeyId, LineClasses};
pub use parse::{parse_config, ParsedConfig, ParsedStanza};
pub use render::{render_config, render_config_into};
pub use semantic::DeviceConfig;
pub use snapshot::{Login, Snapshot, SnapshotMeta, UserDirectory};
pub use typemap::{known_stanza_kinds, ChangeType};
