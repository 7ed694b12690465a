use crate::state::{State, StateNorm};
use fedpower_sim::rng::derive_seed;
use fedpower_sim::{FreqLevel, PerfCounters, Processor, ProcessorConfig, VfTable};
use fedpower_workloads::{AppId, AppModel, AppRun, SequenceMode, Sequencer};

/// Configuration of a simulated device environment.
#[derive(Debug, Clone)]
pub struct DeviceEnvConfig {
    /// Applications installed on this device (its training set).
    pub apps: Vec<AppId>,
    /// Processor model.
    pub processor: ProcessorConfig,
    /// DVFS control interval Δ_DVFS in seconds (paper: 0.5 s).
    pub control_interval_s: f64,
    /// Application launch ordering.
    pub mode: SequenceMode,
    /// State-feature normalization (must match the controller's).
    pub norm: StateNorm,
    /// Custom application models overriding the catalog lookup of `apps`
    /// (used for workload-drift studies; `None` uses the catalog).
    pub custom_models: Option<Vec<AppModel>>,
    /// Highest V/f level this device may use (e.g. a constrained power
    /// mode like the Nano's 5 W profile). Actions above it are clamped —
    /// the device simply cannot clock higher. `None` allows the full
    /// table.
    pub level_cap: Option<FreqLevel>,
}

impl DeviceEnvConfig {
    /// Paper-default environment over the given application set.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty.
    pub fn new(apps: &[AppId]) -> Self {
        assert!(!apps.is_empty(), "a device needs at least one application");
        DeviceEnvConfig {
            apps: apps.to_vec(),
            processor: ProcessorConfig::jetson_nano(),
            control_interval_s: 0.5,
            mode: SequenceMode::UniformRandom,
            norm: StateNorm::jetson_nano(),
            custom_models: None,
            level_cap: None,
        }
    }

    /// Paper-default environment over custom application models (e.g. the
    /// drifted variants from `fedpower_workloads::catalog::perturbed`).
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn from_models(models: Vec<AppModel>) -> Self {
        assert!(
            !models.is_empty(),
            "a device needs at least one application"
        );
        let apps = models.iter().map(AppModel::id).collect();
        DeviceEnvConfig {
            apps,
            processor: ProcessorConfig::jetson_nano(),
            control_interval_s: 0.5,
            mode: SequenceMode::UniformRandom,
            norm: StateNorm::jetson_nano(),
            custom_models: Some(models),
            level_cap: None,
        }
    }
}

/// Everything the environment reports after one control interval.
#[derive(Debug, Clone)]
pub struct StepObservation {
    /// The next agent state (from noisy counters).
    pub state: State,
    /// Noisy counters as the controller sees them.
    pub counters: PerfCounters,
    /// Ground-truth counters for evaluation accounting.
    pub clean: PerfCounters,
    /// Instructions retired this interval.
    pub instructions_retired: f64,
    /// Set when an application completed during this interval.
    pub completed_app: Option<AppId>,
}

/// A per-step controller driving [`DeviceEnv::run_steps`].
///
/// One object owns both halves of the control loop — picking the next V/f
/// level from the latest observation and consuming the resulting step — so
/// callers that need `&mut` state in both (an agent selecting actions *and*
/// recording transitions) implement a single trait instead of fighting the
/// borrow checker with two closures.
pub trait StepDriver {
    /// Chooses the V/f level for the next control interval.
    fn decide(&mut self, obs: &StepObservation) -> FreqLevel;

    /// Consumes the observation produced by executing `action` at
    /// zero-based step index `step`. Returns `false` to stop the batch
    /// early (e.g. when a target application completes).
    fn observe(&mut self, step: u64, action: FreqLevel, obs: &StepObservation) -> bool;
}

/// A simulated edge device: processor + endless application stream.
///
/// Implements the environment half of Fig. 1: the power controller
/// alternates between observing the processor state and setting a V/f
/// level; the device executes the current application for one control
/// interval at that level.
#[derive(Debug, Clone)]
pub struct DeviceEnv {
    cpu: Processor,
    sequencer: Sequencer,
    current: AppRun,
    interval_s: f64,
    norm: StateNorm,
    level_cap: Option<FreqLevel>,
    completed: u64,
    steps: u64,
}

impl DeviceEnv {
    /// Creates a device and launches its first application.
    pub fn new(config: DeviceEnvConfig, seed: u64) -> Self {
        assert!(
            config.control_interval_s > 0.0,
            "control interval must be positive"
        );
        let mut sequencer = match config.custom_models {
            Some(models) => Sequencer::from_models(models, config.mode, derive_seed(seed, 100)),
            None => Sequencer::new(&config.apps, config.mode, derive_seed(seed, 100)),
        };
        let current = sequencer.next_run();
        DeviceEnv {
            cpu: Processor::new(config.processor, derive_seed(seed, 101)),
            sequencer,
            current,
            interval_s: config.control_interval_s,
            norm: config.norm,
            level_cap: config.level_cap,
            completed: 0,
            steps: 0,
        }
    }

    /// The processor's V/f table.
    pub fn vf_table(&self) -> &VfTable {
        self.cpu.vf_table()
    }

    /// The application currently executing.
    pub fn current_app(&self) -> AppId {
        self.current.id()
    }

    /// Applications completed since construction.
    pub fn completed_apps(&self) -> u64 {
        self.completed
    }

    /// Control intervals executed since construction.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Runs one interval at the current level to produce the initial
    /// observation (Algorithm 1 observes `s_t` before its first action).
    pub fn bootstrap(&mut self) -> StepObservation {
        self.step_at(self.cpu.level(), false)
    }

    /// Executes `action` for one control interval and returns the
    /// observation.
    ///
    /// # Panics
    ///
    /// Panics if `action` is outside the V/f table.
    pub fn execute(&mut self, action: FreqLevel) -> StepObservation {
        let action = match self.level_cap {
            Some(cap) if action > cap => cap,
            _ => action,
        };
        let transitioned = action != self.cpu.level();
        self.cpu.set_level(action);
        self.step_at(action, transitioned)
    }

    /// Runs up to `max_steps` control intervals in one tight loop,
    /// starting from `initial` (the observation the driver's first
    /// decision is based on — typically from [`DeviceEnv::bootstrap`]).
    ///
    /// Each iteration is exactly `decide` → [`DeviceEnv::execute`] →
    /// `observe`, so a `run_steps` batch is step-for-step identical to the
    /// equivalent caller-side loop — it just keeps the hot path in one
    /// monomorphized, allocation-free function. Stops early when `observe`
    /// returns `false`.
    ///
    /// Returns the last observation and the number of steps executed.
    pub fn run_steps<D: StepDriver>(
        &mut self,
        max_steps: u64,
        initial: StepObservation,
        driver: &mut D,
    ) -> (StepObservation, u64) {
        let mut obs = initial;
        let mut executed = 0;
        for step in 0..max_steps {
            let action = driver.decide(&obs);
            obs = self.execute(action);
            executed = step + 1;
            if !driver.observe(step, action, &obs) {
                break;
            }
        }
        (obs, executed)
    }

    /// Whether the processor's operating-point fast path is active
    /// (fixed-temperature configs; see `fedpower_sim`'s table docs).
    pub fn uses_fast_path(&self) -> bool {
        self.cpu.uses_fast_path()
    }

    /// `(hits, misses)` of the processor's operating-point row cache
    /// since construction (`(0, 0)` on the analytical path) — sampled by
    /// round-granularity telemetry, never on the per-step hot path.
    pub fn fastpath_stats(&self) -> (u64, u64) {
        self.cpu.fastpath_stats()
    }

    /// Forces every subsequent step through the analytical models.
    /// Results are bit-identical either way; equivalence tests use this to
    /// obtain the oracle trajectory.
    pub fn force_analytical(&mut self) {
        self.cpu.force_analytical();
    }

    fn step_at(&mut self, _level: FreqLevel, transitioned: bool) -> StepObservation {
        let phase = self.current.current_phase();
        let outcome = if transitioned {
            self.cpu.run_after_transition(&phase, self.interval_s)
        } else {
            self.cpu.run(&phase, self.interval_s)
        };
        self.steps += 1;

        self.current.advance(outcome.instructions_retired);
        let completed_app = if self.current.is_complete() {
            let finished = self.current.id();
            self.completed += 1;
            self.current = self.sequencer.next_run();
            Some(finished)
        } else {
            None
        };

        StepObservation {
            state: State::from_counters(&outcome.counters, &self.norm),
            counters: outcome.counters,
            clean: outcome.clean,
            instructions_retired: outcome.instructions_retired,
            completed_app,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpower_sim::NoiseConfig;

    fn env(apps: &[AppId], seed: u64) -> DeviceEnv {
        let mut config = DeviceEnvConfig::new(apps);
        config.processor.noise = NoiseConfig::none();
        DeviceEnv::new(config, seed)
    }

    #[test]
    fn bootstrap_produces_a_state_without_consuming_apps() {
        let mut e = env(&[AppId::Fft], 0);
        let s = e.bootstrap().state;
        assert!(s.features().iter().all(|f| f.is_finite()));
        assert_eq!(e.completed_apps(), 0);
        assert_eq!(e.steps(), 1);
    }

    #[test]
    fn execute_advances_the_application() {
        let mut e = env(&[AppId::Fft], 1);
        let obs = e.execute(FreqLevel(14));
        assert!(obs.instructions_retired > 1e8);
        assert!(obs.completed_app.is_none());
        assert!((obs.counters.freq_mhz - 1479.0).abs() < 1e-9);
    }

    #[test]
    fn applications_complete_and_roll_over() {
        let mut e = env(&[AppId::Radix], 2);
        let mut completions = 0;
        for _ in 0..200 {
            if e.execute(FreqLevel(14)).completed_app.is_some() {
                completions += 1;
            }
        }
        assert!(
            completions >= 1,
            "radix at max frequency should finish within 100 s"
        );
        assert_eq!(e.completed_apps(), completions);
        assert_eq!(
            e.current_app(),
            AppId::Radix,
            "single-app device relaunches"
        );
    }

    #[test]
    fn run_steps_matches_a_manual_execute_loop_bitwise() {
        // `run_steps` promises to be the caller-side loop: decide →
        // `execute` → observe by hand, with decisions that read each
        // observation, must reproduce its trajectory bit for bit.
        struct Cycle(u64);
        impl StepDriver for Cycle {
            fn decide(&mut self, obs: &StepObservation) -> FreqLevel {
                self.0 += 1;
                FreqLevel(((self.0 + obs.counters.freq_mhz as u64) % 15) as usize)
            }
            fn observe(&mut self, _: u64, _: FreqLevel, _: &StepObservation) -> bool {
                true
            }
        }
        let mut batched = env(&[AppId::Fft, AppId::Lu], 9);
        let mut manual = batched.clone();
        let initial = batched.bootstrap();
        let mut driver = Cycle(0);
        let (last, executed) = batched.run_steps(40, initial.clone(), &mut driver);
        assert_eq!(executed, 40);

        let _ = manual.bootstrap();
        let mut driver = Cycle(0);
        let mut obs = initial;
        for step in 0..40u64 {
            let action = driver.decide(&obs);
            obs = manual.execute(action);
            assert!(driver.observe(step, action, &obs));
        }
        assert_eq!(obs.state.features(), last.state.features());
        assert_eq!(
            obs.counters.power_w.to_bits(),
            last.counters.power_w.to_bits()
        );
        assert_eq!(
            obs.instructions_retired.to_bits(),
            last.instructions_retired.to_bits()
        );
        assert_eq!(manual.steps(), batched.steps());
        assert_eq!(manual.completed_apps(), batched.completed_apps());
    }

    #[test]
    fn higher_level_burns_more_power_in_observation() {
        let mut e = env(&[AppId::Lu], 3);
        let low = e.execute(FreqLevel(1));
        let high = e.execute(FreqLevel(14));
        assert!(high.counters.power_w > 2.0 * low.counters.power_w);
    }

    #[test]
    fn state_reflects_executed_level() {
        let mut e = env(&[AppId::Lu], 4);
        let obs = e.execute(FreqLevel(7));
        let expected = 825.6 / 1479.0;
        assert!((obs.state.f_norm() as f64 - expected).abs() < 1e-6);
    }

    #[test]
    fn same_seed_same_trajectory() {
        let mut a = env(&[AppId::Fft, AppId::Ocean], 5);
        let mut b = env(&[AppId::Fft, AppId::Ocean], 5);
        a.bootstrap();
        b.bootstrap();
        for i in 0..30 {
            let oa = a.execute(FreqLevel(i % 15));
            let ob = b.execute(FreqLevel(i % 15));
            assert_eq!(oa.counters, ob.counters);
            assert_eq!(oa.completed_app, ob.completed_app);
        }
    }

    #[test]
    fn level_cap_clamps_actions_like_a_power_mode() {
        let mut config = DeviceEnvConfig::new(&[AppId::Lu]);
        config.processor.noise = NoiseConfig::none();
        config.level_cap = Some(FreqLevel(8));
        let mut e = DeviceEnv::new(config, 9);
        // Request f_max; the 5W-mode device delivers its cap instead.
        let obs = e.execute(FreqLevel(14));
        assert!((obs.counters.freq_mhz - 921.6).abs() < 1e-9);
        // Requests at/below the cap pass through unchanged.
        let obs = e.execute(FreqLevel(3));
        assert!((obs.counters.freq_mhz - 403.2).abs() < 1e-9);
    }

    struct CyclingDriver {
        steps_seen: u64,
        stop_after: u64,
    }

    impl StepDriver for CyclingDriver {
        fn decide(&mut self, _obs: &StepObservation) -> FreqLevel {
            FreqLevel((self.steps_seen % 15) as usize)
        }

        fn observe(&mut self, step: u64, action: FreqLevel, _obs: &StepObservation) -> bool {
            assert_eq!(step, self.steps_seen);
            assert_eq!(action, FreqLevel((step % 15) as usize));
            self.steps_seen += 1;
            self.steps_seen < self.stop_after
        }
    }

    #[test]
    fn run_steps_matches_manual_execute_loop_bitwise() {
        let mut batched = env(&[AppId::Fft, AppId::Ocean], 7);
        let mut manual = env(&[AppId::Fft, AppId::Ocean], 7);
        let initial = batched.bootstrap();
        manual.bootstrap();
        let mut driver = CyclingDriver {
            steps_seen: 0,
            stop_after: u64::MAX,
        };
        let (last, executed) = batched.run_steps(40, initial, &mut driver);
        assert_eq!(executed, 40);
        let mut manual_last = None;
        for i in 0..40u64 {
            manual_last = Some(manual.execute(FreqLevel((i % 15) as usize)));
        }
        let manual_last = manual_last.unwrap();
        assert_eq!(last.counters, manual_last.counters);
        assert_eq!(last.clean, manual_last.clean);
        assert_eq!(
            last.instructions_retired.to_bits(),
            manual_last.instructions_retired.to_bits()
        );
        assert_eq!(batched.steps(), manual.steps());
        assert_eq!(batched.completed_apps(), manual.completed_apps());
    }

    #[test]
    fn run_steps_stops_when_driver_says_so() {
        let mut e = env(&[AppId::Fft], 8);
        let initial = e.bootstrap();
        let mut driver = CyclingDriver {
            steps_seen: 0,
            stop_after: 5,
        };
        let (_, executed) = e.run_steps(100, initial, &mut driver);
        assert_eq!(executed, 5);
        assert_eq!(e.steps(), 6, "bootstrap + 5 driven steps");
    }

    #[test]
    fn fast_path_is_active_by_default_and_can_be_forced_off() {
        let mut e = env(&[AppId::Fft], 9);
        assert!(e.uses_fast_path());
        e.force_analytical();
        assert!(!e.uses_fast_path());
    }

    #[test]
    fn memory_bound_app_shows_high_mpki_in_state() {
        let mut e = env(&[AppId::Ocean], 6);
        let obs = e.execute(FreqLevel(10));
        assert!(
            obs.counters.mpki > 12.0,
            "ocean should show high MPKI, got {}",
            obs.counters.mpki
        );
    }
}
