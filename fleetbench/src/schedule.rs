//! The seeded open-loop schedule: every action the benchmark injects, at
//! the virtual instant it is due.
//!
//! Arrivals of each traffic class are evenly spaced with seeded jitter, so
//! load is steady over the run; targets are assigned in time order against
//! a model of each home's state, so that no action interferes with an
//! intent in flight: a home takes no other action within [`INTENT_HOLD`]
//! of an intent, a physical toggle or an activity flip sets values that
//! the next intent resets, and only an ACTIVE home (one whose lamps the
//! room controls) receives intents. The schedule is a pure function of
//! the workload and the seed.

use dspace_simnet::time::from_millis_f64;
use dspace_simnet::{Rng, Time};

use dspace_digis::power::SAVING_BRIGHTNESS;

use crate::fleet::{Spec, INITIAL_BRIGHTNESS};

/// Quiet period after an intent; also the intent's completion deadline.
pub const INTENT_HOLD: Time = 2_000_000_000;
/// Quiet period after a physical toggle, so its pin settles first.
const TOGGLE_HOLD: Time = 1_500_000_000;
/// Quiet period after a home joins or its room becomes ACTIVE again.
const SETTLE_HOLD: Time = 2_000_000_000;
/// Minimum time a room stays IDLE before it is re-activated.
const IDLE_MIN: Time = 3_000_000_000;
/// The timed window is cut into this many equal slices of virtual time.
pub const WINDOW_SLICES: u64 = 40;
/// Virtual seconds of traffic after the timed window, so the last
/// measured intents (TTF about 0.6 s) complete under the same load.
const DRAIN_S: f64 = 1.0;

/// One injected action.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// The timed window opens.
    WindowStart,
    /// The timed window closes.
    WindowEnd,
    /// A boundary between two equal slices of the timed window.
    Slice,
    /// A user sets a room's brightness intent.
    Intent {
        /// Target home.
        home: usize,
        /// Universal brightness (0–1).
        value: f64,
        /// Whether the intent falls in the timed window.
        measured: bool,
    },
    /// A user dims a vendor lamp at its physical switch (S2).
    Toggle {
        /// Target home.
        home: usize,
        /// Which vendor lamp (0 = GeeniLamp, 1 = LifxLamp).
        lamp: usize,
        /// Universal brightness the lamp is set to.
        value: f64,
    },
    /// The motion sensor of a home fires (S3).
    Motion {
        /// Target home.
        home: usize,
    },
    /// A dashboard query.
    Query {
        /// Index into the query shapes.
        shape: usize,
        /// Threshold slot of the shape's predicate.
        slot: usize,
    },
    /// The room yields its write access over a UniLamp.
    Yield {
        /// Target home.
        home: usize,
        /// Which UniLamp.
        lamp: usize,
    },
    /// The room takes write access over a UniLamp back.
    Unyield {
        /// Target home.
        home: usize,
        /// Which UniLamp.
        lamp: usize,
    },
    /// A room's activity flips (S9's policy trigger).
    Activity {
        /// Target home.
        home: usize,
        /// `true` = IDLE, `false` = ACTIVE.
        idle: bool,
    },
    /// A new home joins the fleet.
    Join {
        /// The new home's index.
        home: usize,
    },
    /// A home leaves the fleet.
    Leave {
        /// The leaving home's index.
        home: usize,
    },
}

/// An action and the virtual instant it is due.
#[derive(Debug, Clone, PartialEq)]
pub struct Due {
    /// Due instant (virtual ns).
    pub at: Time,
    /// What to do.
    pub action: Action,
}

/// The whole run's schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Actions in due order.
    pub actions: Vec<Due>,
    /// Virtual instant the timed window opens.
    pub window_start: Time,
    /// Virtual instant the timed window closes.
    pub window_end: Time,
    /// Traffic ends here; the run then settles.
    pub horizon: Time,
    /// Intents the generator had to skip because no home was free. The
    /// workloads are sized so this stays 0.
    pub skipped: u64,
}

/// Query shapes issued by the dashboard: `(kind, predicate template,
/// indexed)`. `{}` is replaced with a threshold; `!=` is outside the
/// planner's plannable subset, so that shape scans.
pub const QUERY_SHAPES: &[(&str, &str, bool)] = &[
    ("Room", ".control.brightness.status >= {}", true),
    ("UniLamp", ".control.brightness.intent == {}", true),
    ("Room", ".control.brightness.status != {}", false),
];

/// Thresholds the query templates take.
pub const QUERY_SLOTS: &[f64] = &[0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];

/// Brightness values user intents choose from.
const LEVELS: &[f64] = &[0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];

#[derive(Debug, Clone)]
struct HomeState {
    alive: bool,
    motion_role: bool,
    active: bool,
    idle_since: Time,
    free_at: Time,
    target: f64,
    /// A lamp was toggled since the last intent: a second pin would leave
    /// no free lamp to hold the room's aggregate on target.
    toggled: bool,
    /// The room was re-activated since the last intent. It then pins each
    /// lamp at the target or at the saving level, whichever the lamp
    /// showed, so its status may read the target, the saving level, or
    /// their mean; the next intent avoids all three.
    woken: bool,
}

/// Evenly spaced arrivals at `hz` over `[0, horizon)`, each jittered within
/// half its slot.
fn arrivals(rng: &mut Rng, hz: f64, horizon: Time, class: u8, out: &mut Vec<(Time, u8)>) {
    if hz <= 0.0 {
        return;
    }
    let slot_ms = 1000.0 / hz;
    let mut k = 0.0;
    loop {
        let t = from_millis_f64(slot_ms * (k + 0.5 * rng.next_f64()));
        if t >= horizon {
            return;
        }
        out.push((t, class));
        k += 1.0;
    }
}

fn secs(s: f64) -> Time {
    from_millis_f64(s * 1000.0)
}

const INTENT: u8 = 0;
const TOGGLE: u8 = 1;
const MOTION: u8 = 2;
const QUERY: u8 = 3;
const YIELD: u8 = 4;
const ACTIVITY: u8 = 5;
const CHURN: u8 = 6;

impl Schedule {
    /// Generates the schedule of a run whose timed window lasts `window_s`
    /// virtual seconds.
    pub fn generate(spec: &Spec, seed: u64, window_s: f64) -> Schedule {
        let mut rng = Rng::new(seed ^ 0x5eed_f1ee_7b3c_0001);
        let window_start = secs(spec.warmup_s);
        let window_end = window_start + secs(window_s);
        let horizon = window_end + secs(DRAIN_S);
        let mut times = Vec::new();
        arrivals(&mut rng, spec.intent_hz, horizon, INTENT, &mut times);
        arrivals(&mut rng, spec.toggle_hz, horizon, TOGGLE, &mut times);
        arrivals(&mut rng, spec.motion_hz, horizon, MOTION, &mut times);
        arrivals(&mut rng, spec.query_hz, horizon, QUERY, &mut times);
        arrivals(&mut rng, spec.yield_hz, horizon, YIELD, &mut times);
        arrivals(&mut rng, spec.activity_hz, horizon, ACTIVITY, &mut times);
        if spec.churn_every_s > 0.0 {
            arrivals(
                &mut rng,
                1.0 / spec.churn_every_s,
                horizon,
                CHURN,
                &mut times,
            );
        }
        times.sort_unstable();

        let mut homes: Vec<HomeState> = (0..spec.homes)
            .map(|i| HomeState {
                alive: true,
                motion_role: i < spec.motion_homes,
                active: true,
                idle_since: 0,
                free_at: 0,
                target: INITIAL_BRIGHTNESS,
                toggled: false,
                woken: false,
            })
            .collect();
        // Seeded tie-break order among equally eligible homes.
        let mut rank: Vec<u64> = (0..spec.homes).map(|_| rng.next_u64()).collect();
        let mut yields = 0usize;
        let mut motions = rng.uniform_u64(0, spec.motion_homes.max(1) as u64) as usize;
        let mut queries =
            rng.uniform_u64(0, (QUERY_SHAPES.len() * QUERY_SLOTS.len()) as u64) as usize;
        let mut skipped = 0;
        let mut actions = vec![
            Due {
                at: window_start,
                action: Action::WindowStart,
            },
            Due {
                at: window_end,
                action: Action::WindowEnd,
            },
        ];

        let slice = (window_end - window_start) / WINDOW_SLICES;
        for k in 1..WINDOW_SLICES {
            actions.push(Due {
                at: window_start + k * slice,
                action: Action::Slice,
            });
        }

        for (t, class) in times {
            let free = |h: &HomeState| h.alive && !h.motion_role && h.active && h.free_at <= t;
            match class {
                INTENT => {
                    let pick = (0..homes.len())
                        .filter(|&i| free(&homes[i]))
                        .min_by_key(|&i| (homes[i].free_at, rank[i]));
                    let Some(h) = pick else {
                        skipped += 1;
                        continue;
                    };
                    let prev = homes[h].target;
                    let mixed = (prev + SAVING_BRIGHTNESS) / 2.0;
                    let woken = homes[h].woken;
                    let choices: Vec<f64> = LEVELS
                        .iter()
                        .copied()
                        .filter(|v| (v - prev).abs() > 1e-9)
                        .filter(|v| !woken || (v - mixed).abs() > 1e-9)
                        .collect();
                    let value = *rng.pick(&choices).expect("levels");
                    homes[h].target = value;
                    homes[h].toggled = false;
                    homes[h].woken = false;
                    homes[h].free_at = t + INTENT_HOLD;
                    let measured = (window_start..window_end).contains(&t);
                    actions.push(Due {
                        at: t,
                        action: Action::Intent {
                            home: h,
                            value,
                            measured,
                        },
                    });
                }
                TOGGLE => {
                    let eligible: Vec<usize> = (0..homes.len())
                        .filter(|&i| free(&homes[i]) && !homes[i].toggled)
                        .collect();
                    let Some(&h) = rng.pick(&eligible) else {
                        continue;
                    };
                    homes[h].toggled = true;
                    // Target ± 0.1 keeps the room's compensation unclamped,
                    // so the room's aggregate status stays on its target.
                    let delta = if rng.chance(0.5) { 0.1 } else { -0.1 };
                    let value = ((homes[h].target + delta) * 10.0).round() / 10.0;
                    homes[h].free_at = t + TOGGLE_HOLD;
                    let lamp = rng.uniform_u64(0, 2) as usize;
                    actions.push(Due {
                        at: t,
                        action: Action::Toggle {
                            home: h,
                            lamp,
                            value,
                        },
                    });
                }
                MOTION => {
                    let home = motions % spec.motion_homes;
                    motions += 1;
                    actions.push(Due {
                        at: t,
                        action: Action::Motion { home },
                    });
                }
                QUERY => {
                    // Every (shape, threshold) pair in turn, so each slice
                    // of the window issues the same mix: the shapes' costs
                    // differ, and with a random mix the median moved with
                    // the share of each shape.
                    let shape = queries % QUERY_SHAPES.len();
                    let slot = (queries / QUERY_SHAPES.len()) % QUERY_SLOTS.len();
                    queries += 1;
                    actions.push(Due {
                        at: t,
                        action: Action::Query { shape, slot },
                    });
                }
                YIELD => {
                    // Alternate: yield a UniLamp, then give it back.
                    let n = yields / 2;
                    let home = n % spec.motion_homes;
                    let lamp = (n / spec.motion_homes) % 2;
                    let action = if yields.is_multiple_of(2) {
                        Action::Yield { home, lamp }
                    } else {
                        Action::Unyield { home, lamp }
                    };
                    yields += 1;
                    actions.push(Due { at: t, action });
                }
                ACTIVITY => {
                    // Re-activate the longest-idle room once it has been
                    // idle long enough, else idle a free ACTIVE room.
                    let wake = (0..homes.len())
                        .filter(|&i| homes[i].alive && !homes[i].active)
                        .filter(|&i| homes[i].idle_since + IDLE_MIN <= t)
                        .min_by_key(|&i| homes[i].idle_since);
                    if let Some(h) = wake {
                        homes[h].active = true;
                        homes[h].woken = true;
                        homes[h].free_at = t + SETTLE_HOLD;
                        actions.push(Due {
                            at: t,
                            action: Action::Activity {
                                home: h,
                                idle: false,
                            },
                        });
                        continue;
                    }
                    let eligible: Vec<usize> =
                        (0..homes.len()).filter(|&i| free(&homes[i])).collect();
                    let Some(&h) = rng.pick(&eligible) else {
                        continue;
                    };
                    homes[h].active = false;
                    homes[h].idle_since = t;
                    actions.push(Due {
                        at: t,
                        action: Action::Activity {
                            home: h,
                            idle: true,
                        },
                    });
                }
                CHURN => {
                    // The oldest free home leaves, and a new one joins.
                    if let Some(h) = (0..homes.len()).find(|&i| free(&homes[i])) {
                        homes[h].alive = false;
                        actions.push(Due {
                            at: t,
                            action: Action::Leave { home: h },
                        });
                    }
                    let h = homes.len();
                    homes.push(HomeState {
                        alive: true,
                        motion_role: false,
                        active: true,
                        idle_since: 0,
                        free_at: t + SETTLE_HOLD,
                        target: INITIAL_BRIGHTNESS,
                        toggled: false,
                        woken: false,
                    });
                    rank.push(rng.next_u64());
                    actions.push(Due {
                        at: t,
                        action: Action::Join { home: h },
                    });
                }
                _ => unreachable!("every class is handled"),
            }
        }
        // Stable: window markers sort before actions due at the same
        // instant, so the window boundary is exact.
        actions.sort_by_key(|d| d.at);
        Schedule {
            actions,
            window_start,
            window_end,
            horizon,
            skipped,
        }
    }

    /// Number of intents in the timed window.
    pub fn measured_intents(&self) -> usize {
        self.actions
            .iter()
            .filter(|d| matches!(d.action, Action::Intent { measured: true, .. }))
            .count()
    }
}
