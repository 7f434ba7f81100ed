//! The stamped-slot ring behind every time-bucketed recorder in this
//! crate: the sliding windows of
//! [`WindowedHistogram`](crate::metrics::WindowedHistogram) and the
//! retention tiers of [`Tsdb`](crate::tsdb::Tsdb).
//!
//! Bucket index `i` (seconds, ten-second periods, statusz windows …)
//! lives in slot `i mod n`, stamped `i + 1`, so a stamp of 0 means never
//! written. The first write of a new lap clears the slot; a write a full
//! lap *behind* the slot is dropped, because its bucket has already
//! expired. Readers see only the slots stamped within the last `n`
//! indices, so a lapped bucket reads as absent, never as zero, and no
//! background thread ever sweeps. The ring itself is not synchronized:
//! its owners keep it behind their own lock.

/// `n` slots of `T`, each stamped with the bucket index it holds + 1.
#[derive(Debug)]
pub(crate) struct StampedRing<T> {
    slots: Box<[(u64, T)]>,
}

impl<T: Default> StampedRing<T> {
    /// A ring of `len` unwritten slots (at least one).
    pub(crate) fn new(len: usize) -> Self {
        Self {
            slots: (0..len.max(1)).map(|_| (0, T::default())).collect(),
        }
    }

    /// Bucket `index`, reset to `T::default()` if its slot held an older
    /// lap. `None` when the slot already holds a newer lap: the write is
    /// a full lap behind and its bucket has expired.
    pub(crate) fn slot_mut(&mut self, index: u64) -> Option<&mut T> {
        let n = self.slots.len() as u64;
        let (stamp, value) = &mut self.slots[(index % n) as usize];
        if *stamp > index + 1 {
            return None;
        }
        if *stamp < index + 1 {
            *stamp = index + 1;
            *value = T::default();
        }
        Some(value)
    }
}

impl<T> StampedRing<T> {
    /// `(index, bucket)` of every bucket live at `now`, that is with an
    /// index in `(now - n, now]`, oldest first.
    pub(crate) fn live(&self, now: u64) -> impl Iterator<Item = (u64, &T)> {
        let n = self.slots.len() as u64;
        ((now + 1).saturating_sub(n)..=now).filter_map(move |index| {
            let (stamp, value) = &self.slots[(index % n) as usize];
            (*stamp == index + 1).then_some((index, value))
        })
    }
}
