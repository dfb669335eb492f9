//! Trouble tickets.
//!
//! Tickets are MPA's health signal (paper §2.2, "Network Health"): incident
//! tickets — raised by monitoring alarms or user reports — count toward a
//! network's monthly ticket count, while *planned maintenance* tickets must
//! be excluded ("maintenance tickets are unlikely to be triggered by
//! performance or availability problems").

use crate::ids::{DeviceId, NetworkId, TicketId};
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};

/// How a ticket came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TicketKind {
    /// A monitoring system crossed an alarm threshold.
    MonitoringAlarm,
    /// A user reported a problem.
    UserReport,
    /// Planned maintenance — excluded from health computation.
    PlannedMaintenance,
}

impl TicketKind {
    /// Whether this ticket counts toward the network-health metric.
    pub fn counts_toward_health(self) -> bool {
        !matches!(self, TicketKind::PlannedMaintenance)
    }
}

/// Operator-assigned impact level. The paper notes these are "often
/// subjective" and therefore not used as a health metric; we carry them so
/// the inference layer can demonstrate *ignoring* them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TicketSeverity {
    /// Informational / cosmetic.
    Low,
    /// Degradation with workaround.
    Medium,
    /// Outage or severe degradation.
    High,
}

/// A trouble ticket in the incident-management system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ticket {
    /// Identifier.
    pub id: TicketId,
    /// Network the ticket is filed against.
    pub network: NetworkId,
    /// How the ticket was created.
    pub kind: TicketKind,
    /// When the problem was discovered.
    pub opened: Timestamp,
    /// When the ticket was marked resolved. May lag the actual fix
    /// ("tickets are sometimes not marked as resolved until well after the
    /// problem has been fixed"), so duration is unreliable as a health metric.
    pub resolved: Option<Timestamp>,
    /// Devices named as causing or affected by the problem (may be empty:
    /// not every ticket localizes to a device).
    pub devices: Vec<DeviceId>,
    /// Operator-assigned severity.
    pub severity: TicketSeverity,
    /// Symptom selected from the incident system's predefined list.
    pub symptom: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticket(kind: TicketKind) -> Ticket {
        Ticket {
            id: TicketId(1),
            network: NetworkId(0),
            kind,
            opened: Timestamp(100),
            resolved: Some(Timestamp(160)),
            devices: vec![],
            severity: TicketSeverity::Medium,
            symptom: "packet-loss".into(),
        }
    }

    #[test]
    fn maintenance_excluded_from_health() {
        assert!(ticket(TicketKind::MonitoringAlarm).kind.counts_toward_health());
        assert!(ticket(TicketKind::UserReport).kind.counts_toward_health());
        assert!(!ticket(TicketKind::PlannedMaintenance).kind.counts_toward_health());
    }

    #[test]
    fn severity_is_ordered() {
        assert!(TicketSeverity::Low < TicketSeverity::Medium);
        assert!(TicketSeverity::Medium < TicketSeverity::High);
    }
}
