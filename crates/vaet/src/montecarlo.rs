//! Access-level Monte Carlo: latency/energy distributions under process
//! variation and stochastic switching.
//!
//! One Monte Carlo sample is one *word access*:
//!
//! 1. a global (per-die) CMOS sample perturbs the peripheral speed,
//! 2. each bit of the word gets a local MTJ sample (diameter, RA, TMR, K_i)
//!    and — for writes — a thermal initial angle drawn from the Rayleigh
//!    distribution `p(θ₀) = 2Δθ₀·exp(−Δθ₀²)`,
//! 3. the access completes when its **slowest bit** completes; the write
//!    current keeps flowing for the whole (per-access) pulse, so energy
//!    scales with the completion time, not each bit's own switch time.
//!
//! This is what makes the variation-aware mean (μ) far exceed the nominal
//! value in the paper's Table 1: the max over a 1024-bit word sits deep in
//! the exponential tail of the per-bit switching-time distribution.

use mss_exec::supervise::CancelToken;
use mss_exec::{par_chunks_stats, ParallelConfig, RunStats};
use mss_mtj::{MechanismConfig, MssStack, MssStackBuilder};
use mss_pdk::variation::MtjVariation;
use mss_spice::batch::DcBatch;
use mss_spice::netlist::Netlist;
use mss_spice::waveform::Waveform;

use mss_units::rng::{normal, Rng, Variation, Xoshiro256PlusPlus};
use mss_units::stats::{DistributionSummary, OnlineStats};

use crate::context::{VaetContext, SENSE_OFFSET_SIGMA};
use crate::reference::{switching_time, thermal_angle};
use crate::report::VaetReport;
use crate::VaetError;

/// Options for a Monte Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloOptions {
    /// Number of word accesses to simulate.
    pub samples: usize,
    /// RNG seed (runs are fully deterministic per seed).
    pub seed: u64,
    /// Override the word width (defaults to the context's configuration).
    pub word_bits: Option<u32>,
}

impl Default for MonteCarloOptions {
    fn default() -> Self {
        Self {
            samples: 2000,
            seed: 0x5713_AE77,
            word_bits: None,
        }
    }
}

/// Word-independent quantities shared by every sample.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SampleConsts {
    pub(crate) periph_wl: f64,
    pub(crate) periph_rl: f64,
    pub(crate) periph_we: f64,
    pub(crate) periph_re: f64,
    pub(crate) i_write_nom: f64,
    pub(crate) sense_nom: f64,
    pub(crate) signal_nom: f64,
}

/// Per-batch accumulators, merged in batch order after the fan-out.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchAcc {
    pub(crate) wl: OnlineStats,
    pub(crate) we: OnlineStats,
    pub(crate) rl: OnlineStats,
    pub(crate) re: OnlineStats,
}

impl BatchAcc {
    pub(crate) fn merge(&mut self, other: &BatchAcc) {
        self.wl.merge(&other.wl);
        self.we.merge(&other.we);
        self.rl.merge(&other.rl);
        self.re.merge(&other.re);
    }
}

/// The validated word width and sample constants of one run; shared with
/// [`crate::reference`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Setup {
    pub(crate) word: usize,
    pub(crate) consts: SampleConsts,
}

impl Setup {
    pub(crate) fn new(ctx: &VaetContext, opts: &MonteCarloOptions) -> Result<Self, VaetError> {
        if opts.samples == 0 {
            return Err(VaetError::InvalidOptions {
                reason: "samples must be non-zero".into(),
            });
        }
        let word = opts.word_bits.unwrap_or(ctx.config.word_bits) as usize;
        if word == 0 {
            return Err(VaetError::InvalidOptions {
                reason: "word width must be non-zero".into(),
            });
        }

        // Peripheral energy share = array energy minus the word's cell
        // energy, rescaled when the word width is overridden (narrower
        // accesses fire proportionally less periphery).
        let word_fraction = word as f64 / ctx.config.word_bits as f64;
        let periph_we = (ctx.nominal.write_energy
            - ctx.config.word_bits as f64 * ctx.cell.write.energy)
            .max(0.0)
            * word_fraction;
        let periph_re =
            (ctx.nominal.read_energy - ctx.config.word_bits as f64 * ctx.cell.read.energy).max(0.0)
                * word_fraction;
        Ok(Self {
            word,
            consts: SampleConsts {
                periph_wl: ctx.write_periphery_latency(),
                periph_rl: ctx.read_periphery_latency(),
                periph_we,
                periph_re,
                i_write_nom: ctx.cell.write.current,
                sense_nom: ctx.cell.read.latency,
                signal_nom: ctx.sense_signal(),
            },
        })
    }

    pub(crate) fn report(
        &self,
        ctx: &VaetContext,
        opts: &MonteCarloOptions,
        total: &BatchAcc,
    ) -> VaetReport {
        VaetReport {
            node: ctx.tech.node,
            samples: opts.samples as u64,
            word_bits: self.word as u32,
            nominal_write_latency: ctx.nominal.write_latency,
            // Nominal energies consistent with the effective word width.
            nominal_write_energy: self.consts.periph_we + self.word as f64 * ctx.cell.write.energy,
            nominal_read_latency: ctx.nominal.read_latency,
            nominal_read_energy: self.consts.periph_re + self.word as f64 * ctx.cell.read.energy,
            write_latency: DistributionSummary::from(&total.wl),
            write_energy: DistributionSummary::from(&total.we),
            read_latency: DistributionSummary::from(&total.rl),
            read_energy: DistributionSummary::from(&total.re),
        }
    }
}

/// The variation fields one side of an access reads. Diameter is always
/// read. An unread field's draw is still consumed
/// ([`Variation::skip`]), so the generator advances exactly as under
/// [`VariationCard::sample_stack`](mss_pdk::variation::VariationCard::sample_stack),
/// and the built stack carries the nominal value.
#[derive(Debug, Clone, Copy)]
struct StackReads {
    thickness: bool,
    ra: bool,
    tmr: bool,
    anisotropy: bool,
}

impl StackReads {
    /// Every field: a full `sample_stack` draw.
    const ALL: Self = Self {
        thickness: true,
        ra: true,
        tmr: true,
        anisotropy: true,
    };

    /// The read side: `R_P`/`R_AP` read diameter, RA and TMR.
    const READ: Self = Self {
        thickness: false,
        ra: true,
        tmr: true,
        anisotropy: false,
    };

    /// The write side: the switching model reads diameter, thickness and
    /// K_i; the write-path resistance reads RA for the STT junction and
    /// only the diameter for the SOT channel.
    fn write(mechanism: &MechanismConfig) -> Self {
        Self {
            thickness: true,
            ra: matches!(mechanism, MechanismConfig::Stt),
            tmr: false,
            anisotropy: true,
        }
    }
}

/// Draws one bit's stack in `sample_stack`'s order (diameter, thickness,
/// RA, TMR, K_i), evaluating only the fields in `reads`.
fn draw_stack<R: Rng + ?Sized>(
    card: &MtjVariation,
    nominal: &MssStack,
    reads: StackReads,
    rng: &mut R,
) -> Result<MssStack, VaetError> {
    fn field<R: Rng + ?Sized>(v: &Variation, rng: &mut R, nominal: f64, read: bool) -> f64 {
        if read {
            v.sample(rng, nominal)
        } else {
            v.skip(rng, nominal);
            nominal
        }
    }
    let diameter = card.diameter.sample(rng, nominal.diameter());
    let thickness = field(
        &card.thickness,
        rng,
        nominal.free_layer_thickness(),
        reads.thickness,
    );
    let ra = field(&card.ra, rng, nominal.resistance_area_product(), reads.ra);
    let tmr = field(&card.tmr, rng, nominal.tmr_zero_bias(), reads.tmr);
    let ki = field(
        &card.anisotropy,
        rng,
        nominal.interfacial_anisotropy(),
        reads.anisotropy,
    );
    MssStackBuilder::from(nominal.clone())
        .diameter(diameter)
        .free_layer_thickness(thickness)
        .resistance_area_product(ra)
        .tmr_zero_bias(tmr)
        .interfacial_anisotropy(ki)
        .build()
        .map_err(VaetError::Device)
}

/// True when the stack builds at all 32 corners of the card's ±4σ
/// sampling box. Each `MssStackBuilder::build` check on a varied field is
/// an interval check on that field or monotone in it (`hk_eff > 0` rises
/// with K_i and falls with thickness), so then every in-window sample
/// builds too, and a skipped draw cannot hide a build error.
fn corner_box_builds(card: &MtjVariation, nominal: &MssStack) -> bool {
    let windows = [
        card.diameter.window(nominal.diameter()),
        card.thickness.window(nominal.free_layer_thickness()),
        card.ra.window(nominal.resistance_area_product()),
        card.tmr.window(nominal.tmr_zero_bias()),
        card.anisotropy.window(nominal.interfacial_anisotropy()),
    ];
    (0..1u32 << windows.len()).all(|corner| {
        let at = |i: usize| {
            let (lo, hi) = windows[i];
            if corner >> i & 1 == 0 {
                lo
            } else {
                hi
            }
        };
        MssStackBuilder::from(nominal.clone())
            .diameter(at(0))
            .free_layer_thickness(at(1))
            .resistance_area_product(at(2))
            .tmr_zero_bias(at(3))
            .interfacial_anisotropy(at(4))
            .build()
            .is_ok()
    })
}

/// The stack fields each side of an access evaluates in one run.
#[derive(Debug, Clone, Copy)]
struct Draws {
    write: StackReads,
    read: StackReads,
}

impl Draws {
    /// Per-side reads when the card's corner box builds; otherwise every
    /// field on both sides, so a failing sample reports the error
    /// `sample_stack` would.
    fn for_context(ctx: &VaetContext) -> Self {
        if corner_box_builds(&ctx.variation.mtj, &ctx.stack) {
            Self {
                write: StackReads::write(&ctx.mechanism),
                read: StackReads::READ,
            }
        } else {
            Self {
                write: StackReads::ALL,
                read: StackReads::ALL,
            }
        }
    }
}

/// Simulates one word access (one write + one read) and records it.
fn sample_access<R: Rng + ?Sized>(
    ctx: &VaetContext,
    word: usize,
    consts: &SampleConsts,
    draws: Draws,
    rng: &mut R,
    acc: &mut BatchAcc,
) -> Result<(), VaetError> {
    // Global CMOS sample: peripheral speed/energy factor.
    let t_sample = ctx.variation.sample_tech(rng, &ctx.tech);
    let drive = |t: &mss_pdk::tech::TechParams| t.nmos.kp * (t.vdd - t.nmos.vth).powi(2);
    let speed_factor = (drive(&ctx.tech) / drive(&t_sample)).clamp(0.5, 2.0);

    // --- Write access ---
    // Power drawn by one nominal cell during its write (the measured
    // cell energy spread over the measured cell latency); the pulse is
    // held for the slowest bit, so every bit burns this power for the
    // whole completion time — the paper's mu >> nominal energy effect.
    let cell_power_nom = ctx.cell.write.energy / ctx.cell.write.latency.max(1e-12);
    let mut t_cell_max: f64 = 0.0;
    let mut power_sum = 0.0;
    for _ in 0..word {
        let stack = draw_stack(&ctx.variation.mtj, &ctx.stack, draws.write, rng)?;
        let sw = ctx.corner_switching_model(&stack)?;
        // Local access-device mismatch perturbs the write current.
        let i_rel = normal(rng, 1.0, 0.04).clamp(0.7, 1.3) / speed_factor;
        let i_bit = consts.i_write_nom * i_rel;
        let theta0 = thermal_angle(rng, sw.delta());
        let t_bit = switching_time(&sw, i_bit, theta0);
        t_cell_max = t_cell_max.max(t_bit);
        // Dissipation scales as I^2 R relative to the nominal write path.
        let r_rel = ctx.write_resistance_ratio(&stack);
        power_sum += cell_power_nom * i_rel * i_rel * r_rel;
    }
    let t_write = consts.periph_wl * speed_factor + t_cell_max;
    let e_write = consts.periph_we + power_sum * t_cell_max;
    acc.wl.push(t_write);
    acc.we.push(e_write);

    // --- Read access ---
    let mut t_sense_max: f64 = 0.0;
    let mut e_read_cells = 0.0;
    for _ in 0..word {
        let stack = draw_stack(&ctx.variation.mtj, &ctx.stack, draws.read, rng)?;
        // Signal scales with this bit's resistance window.
        let window = stack.resistance_antiparallel() - stack.resistance_parallel();
        let window_nom = ctx.cell.r_antiparallel - ctx.cell.r_parallel;
        let offset = normal(rng, 0.0, SENSE_OFFSET_SIGMA);
        let signal =
            (consts.signal_nom * window / window_nom - offset.abs()).max(0.05 * consts.signal_nom);
        // Regeneration time grows as the effective signal shrinks.
        let t_bit = consts.sense_nom * (consts.signal_nom / signal).min(8.0);
        t_sense_max = t_sense_max.max(t_bit);
        e_read_cells += ctx.cell.read.energy * (window_nom / window).clamp(0.5, 2.0);
    }
    let t_read = consts.periph_rl * speed_factor + t_sense_max;
    let e_read = consts.periph_re + e_read_cells;
    acc.rl.push(t_read);
    acc.re.push(e_read);
    Ok(())
}

/// Runs the Monte Carlo and returns the Table-1-shaped report.
///
/// Parallelism policy comes from the environment
/// ([`ParallelConfig::from_env`], i.e. `MSS_THREADS` or all cores); use
/// [`run_with`] for explicit control. The result is a pure function of
/// `(ctx, opts)` — thread count never changes the report.
///
/// # Errors
///
/// [`VaetError::InvalidOptions`] on zero samples; device sampling errors
/// propagate.
pub fn run(ctx: &VaetContext, opts: &MonteCarloOptions) -> Result<VaetReport, VaetError> {
    run_with(ctx, opts, &ParallelConfig::from_env())
}

/// [`run`] with an explicit thread/chunk policy.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_with(
    ctx: &VaetContext,
    opts: &MonteCarloOptions,
    cfg: &ParallelConfig,
) -> Result<VaetReport, VaetError> {
    run_with_stats(ctx, opts, cfg).map(|(report, _)| report)
}

/// [`run_with`] plus the runtime's [`RunStats`] (throughput, utilization).
///
/// Samples are fanned out in fixed-size batches; batch `i` draws from RNG
/// stream `(opts.seed, i)` and the per-batch accumulators are merged in
/// batch order, so the report is bit-identical at any thread count.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_with_stats(
    ctx: &VaetContext,
    opts: &MonteCarloOptions,
    cfg: &ParallelConfig,
) -> Result<(VaetReport, RunStats), VaetError> {
    run_with_stats_inner(ctx, opts, cfg, None)
}

/// [`run_with_stats`] with a cooperative cancellation token checked at
/// every sample-batch boundary — the hook the sweep supervisor's per-task
/// deadline uses to bound a Monte Carlo run.
///
/// # Errors
///
/// [`VaetError::Cancelled`] when the token trips mid-run, plus every
/// [`run`] error.
pub fn run_with_stats_cancellable(
    ctx: &VaetContext,
    opts: &MonteCarloOptions,
    cfg: &ParallelConfig,
    token: &CancelToken,
) -> Result<(VaetReport, RunStats), VaetError> {
    run_with_stats_inner(ctx, opts, cfg, Some(token))
}

fn run_with_stats_inner(
    ctx: &VaetContext,
    opts: &MonteCarloOptions,
    cfg: &ParallelConfig,
    token: Option<&CancelToken>,
) -> Result<(VaetReport, RunStats), VaetError> {
    let setup = Setup::new(ctx, opts)?;
    let draws = Draws::for_context(ctx);

    let _span = mss_obs::span("vaet.mc.run");
    // Batch-boundary progress for the live telemetry plane: one event per
    // finished batch, keyed to the deterministic batch grid (independent of
    // thread count). With the bus off this is a single atomic load.
    let events_on = mss_obs::events::bus_enabled();
    let total_batches = opts.samples.div_ceil(cfg.chunk.max(1)) as u64;
    let batches_done = std::sync::atomic::AtomicU64::new(0);
    let (batches, stats) = par_chunks_stats(
        cfg,
        opts.samples,
        |batch, range| -> Result<BatchAcc, VaetError> {
            // Opened inside the worker closure so the profiler attributes the
            // sampling time to the executing thread (`by_thread` in the span
            // report), not to the coordinating caller. Batch count depends
            // only on `samples` and the chunk size, so the span count stays
            // deterministic across thread counts.
            let _span = mss_obs::span("vaet.mc.batch");
            // Cancellation checkpoint: one poll per batch bounds the
            // reaction latency to a chunk of samples without touching the
            // per-sample hot path.
            if token.is_some_and(|t| t.is_cancelled()) {
                return Err(VaetError::Cancelled);
            }
            let mut rng = Xoshiro256PlusPlus::stream(opts.seed, batch as u64);
            let mut acc = BatchAcc::default();
            for _ in range {
                sample_access(ctx, setup.word, &setup.consts, draws, &mut rng, &mut acc)?;
            }
            if events_on {
                let done = batches_done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                mss_obs::events::publish(mss_obs::events::EventPayload::Progress {
                    sweep: "vaet.mc".to_string(),
                    done,
                    total: total_batches,
                    retried: 0,
                    budget_seconds: token
                        .and_then(|t| t.budget_remaining())
                        .map(|d| d.as_secs_f64()),
                });
            }
            Ok(acc)
        },
    );
    stats.record("vaet.mc");
    let mut total = BatchAcc::default();
    for batch in batches {
        total.merge(&batch?);
    }

    let report = setup.report(ctx, opts, &total);
    Ok((report, stats))
}

/// Options for the circuit-level sense-margin Monte Carlo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseBatchOptions {
    /// Number of cell samples to solve.
    pub samples: usize,
    /// RNG seed (runs are fully deterministic per seed).
    pub seed: u64,
}

impl Default for SenseBatchOptions {
    fn default() -> Self {
        Self {
            samples: 2048,
            seed: 0x5E4E_B47C,
        }
    }
}

/// Result of a batched SPICE sense-margin run.
#[derive(Debug, Clone, PartialEq)]
pub struct SenseBatchReport {
    /// Samples solved.
    pub samples: u64,
    /// Read bias applied to the bitline, volts.
    pub v_read: f64,
    /// Sense margin (`v_AP − v_P` at the divider taps) distribution, volts.
    pub margin: DistributionSummary,
    /// Worst sampled margin, volts.
    pub min_margin: f64,
    /// Samples whose margin fell below the 1σ sense-amp offset
    /// ([`SENSE_OFFSET_SIGMA`]) — the circuit-level read-failure proxy.
    pub below_offset: u64,
    /// Samples whose MNA solve failed (counted, never fatal).
    pub failed_solves: u64,
}

/// Builds the read-path divider the batch solves: the bitline bias feeds
/// two matched series resistors (access device + bitline, scaled with the
/// subarray height) into a parallel-state cell leg and an
/// antiparallel-state cell leg. The sense margin is the tap difference.
fn sense_netlist(ctx: &VaetContext, v_read: f64) -> Result<Netlist, VaetError> {
    let r_ref = 0.5 * (ctx.cell.r_parallel + ctx.cell.r_antiparallel);
    // Series (access + bitline) resistance: matched to the cell midpoint at
    // the paper's 1024-row subarray and scaled with the bitline length.
    let rows = ctx.config.subarray_rows as f64;
    let r_series = r_ref * (0.75 + 0.25 * rows / 1024.0);
    let mut nl = Netlist::new();
    let build = |nl: &mut Netlist| -> Result<(), mss_spice::SpiceError> {
        nl.add_vsource("vr", "bl", "0", Waveform::dc(v_read))?;
        nl.add_resistor("rsp", "bl", "sp", r_series)?;
        nl.add_resistor("rsap", "bl", "sap", r_series)?;
        nl.add_resistor("rp", "sp", "0", ctx.cell.r_parallel)?;
        nl.add_resistor("rap", "sap", "0", ctx.cell.r_antiparallel)?;
        Ok(())
    };
    build(&mut nl).map_err(|e| VaetError::InvalidOptions {
        reason: format!("sense netlist construction failed: {e}"),
    })?;
    Ok(nl)
}

/// Circuit-level read-margin Monte Carlo through the batched SPICE solver:
/// the netlist topology is analysed once ([`DcBatch`]), then each sample
/// re-solves it with a freshly sampled MTJ stack (RNG stream split by
/// *sample index*, so the report is bit-identical at any thread count).
///
/// This is the paper's sense-margin distribution computed by actual MNA
/// solves rather than the analytical divider of [`run`] — and the workload
/// the `spice_batch_smoke` perf gate times.
///
/// # Errors
///
/// [`VaetError::InvalidOptions`] on zero samples or when every solve
/// fails; device-sampling errors propagate.
pub fn sense_margin_batch(
    ctx: &VaetContext,
    opts: &SenseBatchOptions,
) -> Result<SenseBatchReport, VaetError> {
    sense_margin_batch_with(ctx, opts, &ParallelConfig::from_env())
}

/// [`sense_margin_batch`] with an explicit thread/chunk policy.
///
/// # Errors
///
/// Same as [`sense_margin_batch`].
pub fn sense_margin_batch_with(
    ctx: &VaetContext,
    opts: &SenseBatchOptions,
    cfg: &ParallelConfig,
) -> Result<SenseBatchReport, VaetError> {
    if opts.samples == 0 {
        return Err(VaetError::InvalidOptions {
            reason: "samples must be non-zero".into(),
        });
    }
    let _span = mss_obs::span("vaet.mc.sense_batch");
    let v_read = 0.1; // standard non-disturbing read bias
    let nl = sense_netlist(ctx, v_read)?;
    let rp = nl.element_index("rp").expect("rp exists");
    let rap = nl.element_index("rap").expect("rap exists");

    // Per-sample stack resistances, drawn from per-sample RNG streams so
    // neither thread count nor chunking can reorder the randomness.
    let mut cells = Vec::with_capacity(opts.samples);
    for i in 0..opts.samples {
        let mut rng = Xoshiro256PlusPlus::stream(opts.seed, i as u64);
        let stack = ctx
            .variation
            .sample_stack(&mut rng, &ctx.stack)
            .map_err(VaetError::Device)?;
        cells.push((stack.resistance_parallel(), stack.resistance_antiparallel()));
    }

    let batch = DcBatch::new(&nl);
    let result = batch.run_with(opts.samples, cfg, |i, nl| {
        let (r_p, r_ap) = cells[i];
        nl.set_resistance(rp, r_p)?;
        nl.set_resistance(rap, r_ap)
    });

    let mut stats = OnlineStats::default();
    let mut min_margin = f64::INFINITY;
    let mut below_offset = 0u64;
    for i in 0..opts.samples {
        if result.outcome(i).is_ok() {
            let margin = result.node_voltage(i, "sap").expect("solved")
                - result.node_voltage(i, "sp").expect("solved");
            stats.push(margin);
            min_margin = min_margin.min(margin);
            if margin < SENSE_OFFSET_SIGMA {
                below_offset += 1;
            }
        }
    }
    let failed_solves = result.failure_count() as u64;
    if failed_solves == opts.samples as u64 {
        return Err(VaetError::InvalidOptions {
            reason: "every sense solve failed".into(),
        });
    }
    Ok(SenseBatchReport {
        samples: opts.samples as u64,
        v_read,
        margin: DistributionSummary::from(&stats),
        min_margin,
        below_offset,
        failed_solves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_pdk::tech::TechNode;
    use std::sync::OnceLock;

    fn ctx45() -> &'static VaetContext {
        static CTX: OnceLock<VaetContext> = OnceLock::new();
        CTX.get_or_init(|| VaetContext::standard(TechNode::N45).unwrap())
    }

    fn small_opts(seed: u64) -> MonteCarloOptions {
        MonteCarloOptions {
            samples: 150,
            seed,
            word_bits: Some(64),
        }
    }

    #[test]
    fn variation_aware_mean_exceeds_nominal() {
        let report = run(ctx45(), &small_opts(1)).unwrap();
        // The paper's headline: mu >> nominal for write latency & energy.
        assert!(
            report.write_latency.mean > 1.3 * report.nominal_write_latency,
            "mu {} vs nominal {}",
            report.write_latency.mean,
            report.nominal_write_latency
        );
        assert!(report.read_latency.mean > report.nominal_read_latency);
    }

    #[test]
    fn distributions_have_positive_spread() {
        let report = run(ctx45(), &small_opts(2)).unwrap();
        assert!(report.write_latency.std_dev > 0.0);
        assert!(report.read_latency.std_dev > 0.0);
        assert!(report.write_energy.std_dev > 0.0);
        // Read is much tighter than write (Table 1 shape).
        assert!(report.read_latency.std_dev < report.write_latency.std_dev);
    }

    #[test]
    fn extrema_bracket_the_mean() {
        let report = run_with(
            ctx45(),
            &MonteCarloOptions {
                samples: 64,
                seed: 5,
                word_bits: Some(64),
            },
            &ParallelConfig::serial().with_chunk(16),
        )
        .unwrap();
        for d in [
            report.write_latency,
            report.write_energy,
            report.read_latency,
            report.read_energy,
        ] {
            assert!(0.0 < d.min && d.min <= d.mean && d.mean <= d.max, "{d:?}");
        }
        let sense = sense_margin_batch_with(
            ctx45(),
            &SenseBatchOptions {
                samples: 64,
                seed: 5,
            },
            &ParallelConfig::serial(),
        )
        .unwrap();
        assert_eq!(sense.margin.min, sense.min_margin);
    }

    #[test]
    fn corner_box_gates_the_skipping_draws() {
        let mut card = ctx45().variation.mtj;
        assert!(corner_box_builds(&card, &ctx45().stack));
        // −4σ of a 50 % thickness spread is a negative film.
        card.thickness = Variation::relative(0.5);
        assert!(!corner_box_builds(&card, &ctx45().stack));
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // The determinism contract: a fixed seed gives the exact same
        // report at 1, 2 and 8 threads (batch streams + ordered merge).
        let opts = MonteCarloOptions {
            samples: 700, // several chunks at the default granularity
            seed: 0xD15EA5E,
            word_bits: Some(32),
        };
        let serial = run_with(ctx45(), &opts, &ParallelConfig::serial()).unwrap();
        for threads in [2, 8] {
            let parallel = run_with(
                ctx45(),
                &opts,
                &ParallelConfig::serial().with_threads(threads),
            )
            .unwrap();
            assert_eq!(serial, parallel, "report diverged at {threads} threads");
        }
    }

    #[test]
    fn run_with_stats_reports_throughput() {
        let opts = small_opts(4);
        let (report, stats) =
            run_with_stats(ctx45(), &opts, &ParallelConfig::serial().with_threads(2)).unwrap();
        assert_eq!(report.samples, opts.samples as u64);
        assert_eq!(stats.samples, opts.samples as u64);
        assert!(stats.tasks >= 1);
        assert!(stats.wall_seconds >= 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(ctx45(), &small_opts(7)).unwrap();
        let b = run(ctx45(), &small_opts(7)).unwrap();
        assert_eq!(a.write_latency.mean, b.write_latency.mean);
        let c = run(ctx45(), &small_opts(8)).unwrap();
        assert_ne!(a.write_latency.mean, c.write_latency.mean);
    }

    #[test]
    fn wider_words_have_larger_completion_latency() {
        let narrow = run(
            ctx45(),
            &MonteCarloOptions {
                samples: 120,
                seed: 3,
                word_bits: Some(16),
            },
        )
        .unwrap();
        let wide = run(
            ctx45(),
            &MonteCarloOptions {
                samples: 120,
                seed: 3,
                word_bits: Some(256),
            },
        )
        .unwrap();
        assert!(wide.write_latency.mean > narrow.write_latency.mean);
    }

    #[test]
    fn zero_samples_rejected() {
        let err = run(
            ctx45(),
            &MonteCarloOptions {
                samples: 0,
                seed: 0,
                word_bits: None,
            },
        )
        .unwrap_err();
        assert!(matches!(err, VaetError::InvalidOptions { .. }));
    }

    #[test]
    fn sense_batch_margins_are_physical() {
        let opts = SenseBatchOptions {
            samples: 300,
            seed: 11,
        };
        let report = sense_margin_batch_with(ctx45(), &opts, &ParallelConfig::serial()).unwrap();
        assert_eq!(report.samples, 300);
        assert_eq!(report.failed_solves, 0);
        // The AP leg always divides higher than the P leg.
        assert!(report.min_margin > 0.0);
        assert!(report.margin.mean > report.min_margin);
        // A healthy cell has margin above the sense offset for the vast
        // majority of samples.
        assert!(report.below_offset < report.samples / 10);
        assert!(report.margin.mean < report.v_read, "margin bounded by bias");
    }

    #[test]
    fn sense_batch_bit_identical_across_thread_counts() {
        let opts = SenseBatchOptions {
            samples: 400,
            seed: 0xBEEF,
        };
        let base =
            sense_margin_batch_with(ctx45(), &opts, &ParallelConfig::serial().with_chunk(64))
                .unwrap();
        for threads in [2, 8] {
            let cfg = ParallelConfig::serial()
                .with_threads(threads)
                .with_chunk(64);
            let other = sense_margin_batch_with(ctx45(), &opts, &cfg).unwrap();
            assert_eq!(base, other, "sense report diverged at {threads} threads");
        }
    }

    #[test]
    fn sense_batch_deterministic_per_seed() {
        let run = |seed| {
            sense_margin_batch_with(
                ctx45(),
                &SenseBatchOptions { samples: 120, seed },
                &ParallelConfig::serial(),
            )
            .unwrap()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).margin.mean, run(6).margin.mean);
    }

    #[test]
    fn sense_batch_matches_per_sample_dense_solves() {
        // Cross-layer parity: the vaet wrapper must agree bit-for-bit with
        // hand-built per-sample netlists through the single-solve path.
        let ctx = ctx45();
        let opts = SenseBatchOptions {
            samples: 16,
            seed: 77,
        };
        let report = sense_margin_batch_with(ctx, &opts, &ParallelConfig::serial()).unwrap();
        let mut stats = OnlineStats::default();
        for i in 0..opts.samples {
            let mut rng = Xoshiro256PlusPlus::stream(opts.seed, i as u64);
            let stack = ctx.variation.sample_stack(&mut rng, &ctx.stack).unwrap();
            let mut nl = sense_netlist(ctx, 0.1).unwrap();
            let rp = nl.element_index("rp").unwrap();
            let rap = nl.element_index("rap").unwrap();
            nl.set_resistance(rp, stack.resistance_parallel()).unwrap();
            nl.set_resistance(rap, stack.resistance_antiparallel())
                .unwrap();
            let dc = mss_spice::analysis::dc_operating_point(&nl).unwrap();
            stats.push(dc.node_voltage("sap").unwrap() - dc.node_voltage("sp").unwrap());
        }
        assert_eq!(report.margin, DistributionSummary::from(&stats));
    }

    #[test]
    fn sense_batch_zero_samples_rejected() {
        let err = sense_margin_batch_with(
            ctx45(),
            &SenseBatchOptions {
                samples: 0,
                seed: 1,
            },
            &ParallelConfig::serial(),
        )
        .unwrap_err();
        assert!(matches!(err, VaetError::InvalidOptions { .. }));
    }

    #[test]
    fn cancelled_token_aborts_and_live_token_is_transparent() {
        let token = CancelToken::new();
        token.cancel();
        let err =
            run_with_stats_cancellable(ctx45(), &small_opts(1), &ParallelConfig::serial(), &token)
                .unwrap_err();
        assert!(matches!(err, VaetError::Cancelled));
        let live = CancelToken::new();
        let (report, _) =
            run_with_stats_cancellable(ctx45(), &small_opts(1), &ParallelConfig::serial(), &live)
                .unwrap();
        assert_eq!(report, run(ctx45(), &small_opts(1)).unwrap());
    }
}
