//! The random streams of a lane group, held word by word.
//!
//! Every lane of a group run draws from its own xoshiro256** stream, the
//! one a one-lane run of its seed draws from. For the length of the run
//! the lanes' generator states sit in [`LaneRngs`], one array per state
//! word, so that a site where every lane makes one Bernoulli draw steps
//! all the lanes' generators in one loop and returns the outcomes as a
//! lane mask ([`LaneRngs::below`]). Going site by site in lockstep keeps
//! each lane's own draw order, so every lane's stream is unchanged.
//!
//! A draw `gen::<f64>() < p` is the integer comparison `next_u64() >> 11
//! < unit_threshold(p)` ([`rand::unit_threshold`]), so a site keeps one
//! integer cut instead of a probability. A site where only some lanes
//! draw (a crash hazard on the lanes whose host is still alive, a
//! corruption draw on the lanes that delivered) is a *masked* step
//! ([`LaneRngs::below_masked`]): every lane's generator is stepped, but
//! only the lanes of the mask keep their new state, so the others' streams
//! stay where they were.

use rand::rngs::{xoshiro_step, StdRng};

/// The generator states of 1..=64 lanes: `s[w][li]` is state word `w` of
/// lane `li`.
#[derive(Debug)]
pub(crate) struct LaneRngs {
    width: usize,
    s: [[u64; 64]; 4],
}

impl LaneRngs {
    /// The states of `rngs`, one lane each, in lane order.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 64.
    pub(crate) fn load<'a>(rngs: impl Iterator<Item = &'a StdRng>) -> Self {
        let mut lanes = LaneRngs {
            width: 0,
            s: [[0; 64]; 4],
        };
        for (li, rng) in rngs.enumerate() {
            assert!(li < 64, "a lane group holds at most 64 lanes");
            for (w, word) in rng.state().into_iter().enumerate() {
                lanes.s[w][li] = word;
            }
            lanes.width = li + 1;
        }
        lanes
    }

    /// Writes the lanes' states back into `rngs`, in lane order.
    pub(crate) fn store<'a>(&self, rngs: impl Iterator<Item = &'a mut StdRng>) {
        for (li, rng) in rngs.enumerate().take(self.width) {
            *rng = StdRng::from_state(self.state(li));
        }
    }

    fn state(&self, li: usize) -> [u64; 4] {
        [self.s[0][li], self.s[1][li], self.s[2][li], self.s[3][li]]
    }

    /// One draw on every lane: the lanes whose draw falls below `cut`
    /// (`gen::<f64>() < p` for `cut = unit_threshold(p)`).
    #[inline]
    pub(crate) fn below(&mut self, cut: u64) -> u64 {
        self.below_select(0, cut, cut)
    }

    /// One draw on every lane against a cut that depends on the lane: the
    /// lanes of `select` compare with `cut_set`, the others with
    /// `cut_clear`. Returns the lanes whose draw falls below their cut.
    #[inline]
    pub(crate) fn below_select(&mut self, select: u64, cut_set: u64, cut_clear: u64) -> u64 {
        let w = self.width;
        let [s0, s1, s2, s3] = &mut self.s;
        // A one-lane group steps its one generator without the loop (the
        // width-1 campaign units and single runs draw at every site).
        if w == 1 {
            let cut = if select & 1 != 0 { cut_set } else { cut_clear };
            let x = xoshiro_step(&mut s0[0], &mut s1[0], &mut s2[0], &mut s3[0]);
            return u64::from(x >> 11 < cut);
        }
        let words = s0[..w]
            .iter_mut()
            .zip(&mut s1[..w])
            .zip(&mut s2[..w])
            .zip(&mut s3[..w]);
        let mut mask = 0;
        for (li, (((a, b), c), d)) in words.enumerate() {
            let cut = if select >> li & 1 != 0 {
                cut_set
            } else {
                cut_clear
            };
            let x = xoshiro_step(a, b, c, d);
            mask |= u64::from(x >> 11 < cut) << li;
        }
        mask
    }

    /// One draw on the lanes of `mask` only: the lanes of `mask` whose
    /// draw falls below `cut`. Every lane's generator is stepped in the
    /// loop, but a lane outside `mask` keeps its old state, so its stream
    /// is as if it had not drawn.
    #[inline]
    pub(crate) fn below_masked(&mut self, cut: u64, mask: u64) -> u64 {
        let w = self.width;
        let [s0, s1, s2, s3] = &mut self.s;
        let words = s0[..w]
            .iter_mut()
            .zip(&mut s1[..w])
            .zip(&mut s2[..w])
            .zip(&mut s3[..w]);
        let mut below = 0;
        for (li, (((a, b), c), d)) in words.enumerate() {
            // All ones on a drawing lane, zero elsewhere.
            let keep = (mask >> li & 1).wrapping_neg();
            let old = [*a, *b, *c, *d];
            let x = xoshiro_step(a, b, c, d);
            for (word, old) in [a, b, c, d].into_iter().zip(old) {
                *word = old ^ ((*word ^ old) & keep);
            }
            below |= u64::from(x >> 11 < cut) << li;
        }
        below & mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{unit_threshold, Rng, SeedableRng};

    /// A probability from the values on which `<` flips: 0, −0, the
    /// smallest subnormals, `k · 2^-53` and its neighbours, `1 − 2^-53`,
    /// 1, values above 1, NaN, ±∞, any bit pattern, or a uniform value.
    fn probability() -> impl Strategy<Value = f64> {
        let two53 = (1u64 << 53) as f64;
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            (1u64..4).prop_map(f64::from_bits),
            (0u64..=1 << 53, 0u8..3).prop_map(move |(k, nudge)| {
                let p = k as f64 / two53;
                match nudge {
                    0 => f64::from_bits(p.to_bits().saturating_sub(1)),
                    1 => f64::from_bits(p.to_bits() + 1),
                    _ => p,
                }
            }),
            Just(1.0 - f64::EPSILON / 2.0),
            Just(1.0),
            1.0f64..4.0,
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            any::<u64>().prop_map(f64::from_bits),
            0.0f64..1.0,
        ]
    }

    proptest! {
        /// The integer cut decides every draw exactly as the float
        /// comparison does, on random words and on the word whose draw is
        /// the largest one below `p` or the smallest one at or above it.
        #[test]
        fn unit_threshold_reproduces_the_f64_comparison(
            p in probability(),
            words in proptest::collection::vec(any::<u64>(), 16..=16),
        ) {
            let cut = unit_threshold(p);
            let scale = 1.0 / (1u64 << 53) as f64;
            let edge = [cut.saturating_sub(1), cut, cut + 1]
                .into_iter()
                .filter(|&k| k < 1 << 53)
                .map(|k| k << 11 | 0x7ff);
            for x in words.into_iter().chain(edge) {
                let float = (x >> 11) as f64 * scale < p;
                prop_assert_eq!(x >> 11 < cut, float, "p {:e} x {:#x}", p, x);
            }
        }

        /// Lockstep draws leave every lane's stream where its own
        /// generator, drawing the same sites one by one, leaves it, with
        /// the same outcomes.
        #[test]
        fn lane_draws_follow_each_lanes_own_stream(
            width in 1usize..=64,
            seed in any::<u64>(),
            sites in proptest::collection::vec((probability(), probability(), any::<u64>()), 1..20),
        ) {
            let mut own: Vec<StdRng> =
                (0..width as u64).map(|li| StdRng::seed_from_u64(seed ^ li)).collect();
            let mut lanes = LaneRngs::load(own.iter());
            for (p, q, select) in sites {
                let mask = lanes.below_select(select, unit_threshold(p), unit_threshold(q));
                for (li, rng) in own.iter_mut().enumerate() {
                    let cut = if select >> li & 1 != 0 { p } else { q };
                    prop_assert_eq!(mask >> li & 1 != 0, rng.gen::<f64>() < cut);
                }
            }
            let mut back: Vec<StdRng> = (0..width).map(|_| StdRng::seed_from_u64(0)).collect();
            lanes.store(back.iter_mut());
            prop_assert_eq!(back, own);
        }

        /// Masked steps among plain ones leave every lane where its own
        /// generator leaves it when the lane draws only at the sites whose
        /// mask holds it, with the same outcomes, at widths 1, 7 and 64.
        #[test]
        fn masked_draws_follow_each_lanes_own_stream(
            pick in 0usize..3,
            seed in any::<u64>(),
            sites in proptest::collection::vec((probability(), any::<u64>(), 0u8..4), 1..24),
        ) {
            let width = [1, 7, 64][pick];
            let all = u64::MAX >> (64 - width);
            let mut own: Vec<StdRng> =
                (0..width as u64).map(|li| StdRng::seed_from_u64(seed ^ li)).collect();
            let mut lanes = LaneRngs::load(own.iter());
            for (p, mask, kind) in sites {
                // Every fourth site is a plain step; the masks include the
                // empty and the full one.
                let mask = match kind {
                    0 => all,
                    1 => 0,
                    _ => mask & all,
                };
                let cut = unit_threshold(p);
                let got = if kind == 0 { lanes.below(cut) } else { lanes.below_masked(cut, mask) };
                for (li, rng) in own.iter_mut().enumerate() {
                    let draws = mask >> li & 1 != 0;
                    prop_assert_eq!(got >> li & 1 != 0, draws && rng.gen::<f64>() < p, "lane {}", li);
                }
            }
            let mut back: Vec<StdRng> = (0..width).map(|_| StdRng::seed_from_u64(0)).collect();
            lanes.store(back.iter_mut());
            prop_assert_eq!(back, own);
        }
    }
}
