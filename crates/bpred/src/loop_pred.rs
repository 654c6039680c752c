//! Loop predictor: captures branches with stable trip counts, the "L"
//! in TAGE-SC-L.

const LOOP_ENTRIES: usize = 64;
const CONF_MAX: u8 = 7;
const AGE_MAX: u8 = 3;

#[derive(Clone, Copy, Debug, Default)]
struct LoopEntry {
    tag: u32,
    valid: bool,
    trip: u16,
    current: u16,
    conf: u8,
    age: u8,
}

/// Per-prediction metadata from the loop predictor.
#[derive(Clone, Copy, Debug)]
pub struct LoopMeta {
    /// Whether the loop predictor supplied a confident prediction.
    pub hit: bool,
    /// Its prediction (meaningful only when `hit`).
    pub taken: bool,
}

/// The loop predictor. Trained non-speculatively at retirement;
/// prediction uses the retired iteration count, which is accurate for
/// the long-trip regular loops this table is designed to capture.
#[derive(Clone, Debug)]
pub struct LoopPredictor {
    entries: [LoopEntry; LOOP_ENTRIES],
}

impl Default for LoopPredictor {
    fn default() -> LoopPredictor {
        LoopPredictor::new()
    }
}

impl LoopPredictor {
    /// Creates an empty loop predictor.
    pub fn new() -> LoopPredictor {
        LoopPredictor {
            entries: [LoopEntry::default(); LOOP_ENTRIES],
        }
    }

    #[inline]
    fn slot(pc: u64) -> (usize, u32) {
        let idx = ((pc >> 2) as usize) % LOOP_ENTRIES;
        let tag = ((pc >> 2) / LOOP_ENTRIES as u64) as u32 & 0x3FFF;
        (idx, tag)
    }

    /// Looks up a loop prediction for the branch at `pc`.
    pub fn predict(&self, pc: u64) -> LoopMeta {
        let (idx, tag) = Self::slot(pc);
        let e = &self.entries[idx];
        if e.valid && e.tag == tag && e.conf >= CONF_MAX && e.trip > 0 {
            // Predict not-taken exactly on the learned exit iteration.
            LoopMeta {
                hit: true,
                taken: e.current + 1 < e.trip,
            }
        } else {
            LoopMeta {
                hit: false,
                taken: false,
            }
        }
    }

    /// Trains with the retired outcome of the branch at `pc`.
    pub fn train(&mut self, pc: u64, taken: bool) {
        let (idx, tag) = Self::slot(pc);
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != tag {
            // Allocate on a not-taken outcome (potential loop exit) so
            // `trip` learning starts at a loop boundary.
            if !taken {
                if e.valid && e.age > 0 {
                    e.age -= 1;
                    return;
                }
                *e = LoopEntry {
                    tag,
                    valid: true,
                    trip: 0,
                    current: 0,
                    conf: 0,
                    age: AGE_MAX,
                };
            }
            return;
        }
        if taken {
            e.current = e.current.saturating_add(1);
            // Runaway iteration count: not a fixed-trip loop.
            if e.trip > 0 && e.current > e.trip {
                e.conf = 0;
                e.trip = 0;
            }
        } else {
            let observed = e.current + 1; // iterations including the exit
            if e.trip == observed {
                e.conf = (e.conf + 1).min(CONF_MAX);
            } else {
                e.trip = observed;
                e.conf = 0;
            }
            e.current = 0;
            e.age = AGE_MAX;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(pc: u64, trips: &[u16], lp: &mut LoopPredictor) -> (u64, u64) {
        let mut correct = 0;
        let mut total = 0;
        for &trip in trips {
            for i in 0..trip {
                let taken = i + 1 < trip;
                let m = lp.predict(pc);
                if m.hit {
                    total += 1;
                    if m.taken == taken {
                        correct += 1;
                    }
                }
                lp.train(pc, taken);
            }
        }
        (correct, total)
    }

    #[test]
    fn learns_fixed_trip_count() {
        let mut lp = LoopPredictor::new();
        let trips = vec![10u16; 100];
        let (correct, total) = run(0x1000, &trips, &mut lp);
        assert!(total > 400, "predictor never became confident");
        assert_eq!(correct, total, "confident loop predictions must be exact");
    }

    #[test]
    fn irregular_trip_counts_stay_unconfident() {
        let mut lp = LoopPredictor::new();
        let trips: Vec<u16> = (0..100).map(|i| 5 + (i % 7) as u16).collect();
        let (_, total) = run(0x2000, &trips, &mut lp);
        assert_eq!(total, 0, "should never reach confidence on irregular trips");
    }

    #[test]
    fn no_hit_before_training() {
        let lp = LoopPredictor::new();
        assert!(!lp.predict(0x3000).hit);
    }
}
