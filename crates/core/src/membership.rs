//! Elastic bin membership: which bin ids are live, and the epoch log that
//! makes scale events replayable.
//!
//! The paper fixes `n`; production does not.  [`Membership`] tracks the
//! *live* subset of a monotonically growing id space: bins join at the next
//! fresh id (ids are **never reused**, so recorded trajectories and
//! snapshots stay unambiguous) and retire in place, leaving a permanently
//! empty slot behind.  Every change appends a [`MembershipRecord`]; the
//! 1-based index of a record is its **epoch**, and replaying the log from
//! [`MembershipSnapshot`] reconstructs the exact live set — which is how
//! snapshot restore and topology re-derivation stay deterministic.
//!
//! The live set is kept as a positional array (`active_ids`) with an id →
//! position inverse, so "a uniformly random live bin" is one `next_index`
//! draw — and for a freshly booted system the array is exactly `[0, n)`,
//! which keeps static (churn-free) trajectories bit-identical to the
//! pre-elastic engines.

use serde::{Deserialize, Serialize};

/// One membership change; its 1-based position in the log is its epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MembershipRecord {
    /// The bin that joined or retired.
    pub bin: u32,
    /// `true` for a join, `false` for a retirement.
    pub joined: bool,
}

/// The persistent form of a membership history: the boot-time bin count
/// plus the full epoch log.  Replaying the log is exact, so this is all a
/// snapshot needs to carry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MembershipSnapshot {
    /// Number of bins at boot (ids `0..initial_n`, all live).
    pub initial_n: usize,
    /// Every membership change since boot, in epoch order.
    pub log: Vec<MembershipRecord>,
}

impl MembershipSnapshot {
    /// Reconstruct the membership by replaying the log.
    ///
    /// Fails with a description if the log is inconsistent (a join at the
    /// wrong id, a retirement of a dead bin, or draining the last live
    /// bin).
    pub fn replay(&self) -> Result<Membership, String> {
        self.replay_with(|_, _| {})
    }

    /// [`replay`](Self::replay), invoking `visit` after each applied
    /// record with the membership state *including* that record — the
    /// hook an adjacency layer needs to re-derive its per-epoch patches.
    pub fn replay_with<F>(&self, mut visit: F) -> Result<Membership, String>
    where
        F: FnMut(MembershipRecord, &Membership),
    {
        if self.initial_n == 0 {
            return Err("membership needs at least one boot-time bin".into());
        }
        let mut membership = Membership::new(self.initial_n);
        for (i, rec) in self.log.iter().enumerate() {
            let epoch = i + 1;
            if rec.joined {
                let id = membership.join();
                if id != rec.bin as usize {
                    return Err(format!(
                        "membership log epoch {epoch}: join allocated id {id} but the log says {}",
                        rec.bin
                    ));
                }
            } else {
                let bin = rec.bin as usize;
                if !membership.is_live(bin) {
                    return Err(format!(
                        "membership log epoch {epoch}: retiring bin {bin} which is not live"
                    ));
                }
                if membership.live_count() == 1 {
                    return Err(format!(
                        "membership log epoch {epoch}: cannot retire the last live bin"
                    ));
                }
                membership.retire(bin);
            }
            visit(*rec, &membership);
        }
        Ok(membership)
    }
}

/// The live subset of a monotonically growing bin id space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    /// `live[id]` — whether the id is currently a member.
    live: Vec<bool>,
    /// The live ids in positional order (swap-removed on retire).  For a
    /// churn-free system this is exactly `[0, n)`, so uniform sampling
    /// over it is bit-identical to uniform sampling over `0..n`.
    live_ids: Vec<u32>,
    /// Position of each id inside `live_ids` (valid only while live).
    pos: Vec<u32>,
    /// Boot-time bin count.
    initial_n: usize,
    /// Every membership change since boot, in epoch order.
    log: Vec<MembershipRecord>,
}

impl Membership {
    /// A freshly booted system: ids `0..n`, all live, epoch 0.
    ///
    /// # Panics
    /// Panics if `n == 0` or `n` exceeds `u32` range (the engines reject
    /// both long before this point).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "membership needs at least one bin");
        let n32: u32 = n.try_into().expect("bin count exceeds u32 range");
        Self {
            live: vec![true; n],
            live_ids: (0..n32).collect(),
            pos: (0..n32).collect(),
            initial_n: n,
            log: Vec::new(),
        }
    }

    /// Total ids ever allocated (live + retired); the next join uses this.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.live.len()
    }

    /// Number of currently live bins.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live_ids.len()
    }

    /// Whether `bin` is currently a member.
    #[inline]
    pub fn is_live(&self, bin: usize) -> bool {
        bin < self.live.len() && self.live[bin]
    }

    /// Current epoch: the number of membership changes since boot.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.log.len() as u64
    }

    /// Whether any scale event has happened (epoch > 0).  While `false`,
    /// the live set is exactly `0..n` and every sampling path reduces to
    /// the pre-elastic law.
    #[inline]
    pub fn is_elastic(&self) -> bool {
        !self.log.is_empty()
    }

    /// The live ids in positional (sampling) order.
    #[inline]
    pub fn live_ids(&self) -> &[u32] {
        &self.live_ids
    }

    /// The live id at sampling position `k` (`k < live_count`).
    ///
    /// At epoch 0 the live set is exactly `0..n` in order, so this returns
    /// `k` without reading `live_ids` (a cold line per draw at large `n`).
    ///
    /// # Panics
    /// Panics if `k >= live_count`.
    #[inline]
    pub fn live_at(&self, k: usize) -> usize {
        if self.log.is_empty() {
            assert!(
                k < self.live_ids.len(),
                "live position {k} outside 0..{}",
                self.live_ids.len()
            );
            k
        } else {
            self.live_ids[k] as usize
        }
    }

    /// The live ids in ascending id order (structured-topology rebuilds
    /// map vertex `i` to the `i`-th smallest live id).
    pub fn sorted_live_ids(&self) -> Vec<u32> {
        let mut ids = self.live_ids.clone();
        ids.sort_unstable();
        ids
    }

    /// The epoch log so far.
    #[inline]
    pub fn log(&self) -> &[MembershipRecord] {
        &self.log
    }

    /// Boot-time bin count.
    #[inline]
    pub fn initial_n(&self) -> usize {
        self.initial_n
    }

    /// Admit a new bin at the next fresh id and return that id.
    pub fn join(&mut self) -> usize {
        let id = self.live.len();
        let id32: u32 = id.try_into().expect("bin count exceeds u32 range");
        self.live.push(true);
        let pos32: u32 = self
            .live_ids
            .len()
            .try_into()
            .expect("bin count exceeds u32 range");
        self.pos.push(pos32);
        self.live_ids.push(id32);
        self.log.push(MembershipRecord {
            bin: id32,
            joined: true,
        });
        id
    }

    /// Retire a live bin.  The id slot survives (never reused); the bin
    /// simply leaves the live set.
    ///
    /// # Panics
    /// Panics if `bin` is not live or is the last live bin.
    pub fn retire(&mut self, bin: usize) {
        assert!(self.is_live(bin), "bin {bin} is not a live member");
        assert!(self.live_count() > 1, "cannot retire the last live bin");
        self.live[bin] = false;
        let p = self.pos[bin] as usize;
        self.live_ids.swap_remove(p);
        if p < self.live_ids.len() {
            // Fix the inverse index of the id that filled the hole.
            let moved = self.live_ids[p] as usize;
            self.pos[moved] = p.try_into().expect("bin count exceeds u32 range");
        }
        self.log.push(MembershipRecord {
            bin: bin.try_into().expect("bin count exceeds u32 range"),
            joined: false,
        });
    }

    /// The persistent form: boot size plus epoch log.
    pub fn snapshot(&self) -> MembershipSnapshot {
        MembershipSnapshot {
            initial_n: self.initial_n,
            log: self.log.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_state_is_dense_and_ordered() {
        let m = Membership::new(4);
        assert_eq!(m.capacity(), 4);
        assert_eq!(m.live_count(), 4);
        assert_eq!(m.epoch(), 0);
        assert!(!m.is_elastic());
        assert_eq!(m.live_ids(), &[0, 1, 2, 3]);
        assert!((0..4).all(|b| m.is_live(b)));
        assert!(!m.is_live(4));
    }

    #[test]
    fn join_allocates_fresh_ids_and_bumps_the_epoch() {
        let mut m = Membership::new(2);
        assert_eq!(m.join(), 2);
        assert_eq!(m.join(), 3);
        assert_eq!(m.capacity(), 4);
        assert_eq!(m.live_count(), 4);
        assert_eq!(m.epoch(), 2);
        assert!(m.is_elastic());
        assert_eq!(
            m.log(),
            &[
                MembershipRecord {
                    bin: 2,
                    joined: true
                },
                MembershipRecord {
                    bin: 3,
                    joined: true
                },
            ]
        );
    }

    #[test]
    fn retire_swaps_out_of_the_live_set_but_keeps_the_slot() {
        let mut m = Membership::new(4);
        m.retire(1);
        assert!(!m.is_live(1));
        assert_eq!(m.live_count(), 3);
        assert_eq!(m.capacity(), 4, "the id slot is never reused");
        assert_eq!(m.live_ids(), &[0, 3, 2], "swap-remove order");
        assert_eq!(m.sorted_live_ids(), vec![0, 2, 3]);
        // Every live id resolves through the positional inverse.
        for k in 0..m.live_count() {
            let id = m.live_at(k);
            assert!(m.is_live(id));
        }
        // A later join does NOT resurrect id 1.
        assert_eq!(m.join(), 4);
        assert!(!m.is_live(1));
    }

    #[test]
    fn live_at_reads_the_live_ids_at_every_epoch() {
        let agree =
            |m: &Membership| (0..m.live_count()).all(|k| m.live_at(k) == m.live_ids()[k] as usize);
        let mut m = Membership::new(5);
        assert!(agree(&m), "fresh: the identity path");
        m.join();
        m.join();
        assert!(agree(&m), "after joins");
        m.retire(1);
        assert_eq!(m.live_ids(), &[0, 6, 2, 3, 4, 5], "swap-remove order");
        assert!(agree(&m), "after a retirement");
        assert!(agree(&m.snapshot().replay().unwrap()), "after replay");
        let fresh = Membership::new(3).snapshot().replay().unwrap();
        assert!(agree(&fresh), "after replaying an empty log");
    }

    #[test]
    #[should_panic(expected = "outside 0..3")]
    fn live_at_past_the_live_count_panics_at_epoch_zero() {
        let m = Membership::new(3);
        m.live_at(m.live_count());
    }

    #[test]
    #[should_panic(expected = "not a live member")]
    fn retiring_a_dead_bin_panics() {
        let mut m = Membership::new(3);
        m.retire(2);
        m.retire(2);
    }

    #[test]
    #[should_panic(expected = "last live bin")]
    fn retiring_the_last_live_bin_panics() {
        let mut m = Membership::new(2);
        m.retire(0);
        m.retire(1);
    }

    #[test]
    fn snapshot_replay_reconstructs_the_exact_live_set() {
        let mut m = Membership::new(3);
        m.join();
        m.retire(0);
        m.join();
        m.retire(3);
        let snap = m.snapshot();
        let back = snap.replay().unwrap();
        assert_eq!(back, m, "replay is exact, including sampling order");
        let json = serde_json::to_string(&snap).unwrap();
        let snap2: MembershipSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap2.replay().unwrap(), m);
    }

    #[test]
    fn replay_rejects_inconsistent_logs() {
        let bad_join = MembershipSnapshot {
            initial_n: 2,
            log: vec![MembershipRecord {
                bin: 7,
                joined: true,
            }],
        };
        assert!(bad_join.replay().unwrap_err().contains("allocated id"));
        let dead_retire = MembershipSnapshot {
            initial_n: 2,
            log: vec![MembershipRecord {
                bin: 5,
                joined: false,
            }],
        };
        assert!(dead_retire.replay().unwrap_err().contains("not live"));
        let drained = MembershipSnapshot {
            initial_n: 1,
            log: vec![MembershipRecord {
                bin: 0,
                joined: false,
            }],
        };
        assert!(drained.replay().unwrap_err().contains("last live bin"));
        let empty = MembershipSnapshot {
            initial_n: 0,
            log: vec![],
        };
        assert!(empty.replay().is_err());
    }
}
