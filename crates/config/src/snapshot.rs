//! Configuration snapshots and the archive (§2.1, data source 2).
//!
//! A network-management system "subscribes to syslog feeds from network
//! devices and snapshots a device's configuration whenever the device
//! generates a syslog alert that its configuration has changed. Each
//! snapshot includes the configuration text, as well as metadata about the
//! change, e.g., when it occurred and the login information of the entity
//! (i.e., user or script) that made the change."
//!
//! [`crate::archive::SnapshotArchive`] is that store (delta-encoded; this
//! module holds the snapshot value types it stores). [`UserDirectory`] is
//! the organization's user management system: logins it classifies as
//! *special accounts* mark a change as automated (§2.2, line O2). The
//! classification is deliberately conservative — scripts run under a
//! regular user account are misclassified as manual, under-estimating
//! automation, exactly as the paper acknowledges.

use mpa_model::{DeviceId, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The login recorded with a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Login(pub String);

impl Login {
    /// Construct from any account name.
    pub fn new(account: impl Into<String>) -> Self {
        Self(account.into())
    }

    /// The account name.
    pub fn account(&self) -> &str {
        &self.0
    }
}

/// Snapshot metadata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotMeta {
    /// Device the snapshot belongs to.
    pub device: DeviceId,
    /// When the triggering change occurred.
    pub time: Timestamp,
    /// Login of the entity that made the change.
    pub login: Login,
}

/// One archived configuration snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Metadata.
    pub meta: SnapshotMeta,
    /// Full configuration text at snapshot time.
    pub text: String,
}

/// The organization's user-management system, used to classify logins.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserDirectory {
    special_accounts: BTreeSet<String>,
}

impl UserDirectory {
    /// Directory with the given automation ("special") accounts.
    pub fn new(special_accounts: impl IntoIterator<Item = String>) -> Self {
        Self { special_accounts: special_accounts.into_iter().collect() }
    }

    /// Whether a login is classified as an automation account. Changes made
    /// by unknown logins are assumed manual (the paper's conservative rule).
    pub fn is_automated(&self, login: &Login) -> bool {
        self.special_accounts.contains(login.account())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_directory_classification() {
        let dir = UserDirectory::new(["svc-netauto".to_string()]);
        assert!(dir.is_automated(&Login::new("svc-netauto")));
        assert!(!dir.is_automated(&Login::new("alice")));
        // Conservative rule: unknown logins are manual.
        assert!(!dir.is_automated(&Login::new("some-script-under-user-acct")));
    }
}
