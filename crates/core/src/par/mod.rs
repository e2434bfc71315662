//! Parallel enumeration algorithms.
//!
//! * [`coarse`] — the coarse-grained parallel versions of §4: one task per
//!   starting (root) edge, dynamically scheduled. Work efficient but not
//!   scalable (Theorem 4.2).
//! * [`fine_johnson`] — the fine-grained parallel Johnson algorithm of §5:
//!   the owner of a root runs the sequential Johnson loop in place and, when
//!   the pool reports an idle worker, splits unexplored edges off with a copy
//!   of its path, blocked set and unblock lists, which the receiver rolls
//!   back by recursive unblocking (copy-on-split). Scalable but not work
//!   efficient (Theorems 5.1/5.2).
//! * [`fine_read_tarjan`] — the fine-grained parallel Read-Tarjan algorithm of
//!   §6: every recursive call carries copies of its path and blocked set, so
//!   any pending call can run on any worker. The owner of a root runs the
//!   sequential loop over pending calls and hands its oldest pending call to
//!   a new task only when the pool reports an idle worker. Both scalable and
//!   work efficient (Theorems 6.1/6.2).
//! * [`fine_temporal`] — the temporal-cycle versions of the fine-grained
//!   algorithms (§7), built on the scalable cycle-union preprocessing: the
//!   owner of a root searches in place and copies a split-off branch range
//!   only when the pool reports an idle worker (copy-on-demand).
//!
//! Every search reads the root's cycle union from the running worker's own
//! workspace, which a worker taking over part of another's search fills
//! itself. The in-place, split-on-demand skeleton behind [`fine_temporal`]
//! is a private module shared with the streaming [`crate::delta`] search,
//! whose schedules differ only in whether the search may split, and its
//! split policy and root-claiming loop also drive [`fine_johnson`] and
//! [`fine_read_tarjan`].

pub mod coarse;
pub mod fine_johnson;
pub mod fine_read_tarjan;
pub mod fine_temporal;
pub(crate) mod split;
