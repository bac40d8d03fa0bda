//! Executable specification of the access-level Monte Carlo sampler.
//!
//! [`crate::montecarlo`] consumes every bit's full stack draw but evaluates
//! only the variation fields the write or the read side reads
//! ([`mss_units::rng::Variation::skip`] for the rest). It is required to be
//! **bit-for-bit identical** to the straightforward sampler kept here, in
//! which every bit builds a complete [`VariationCard::sample_stack`] for its
//! write and another for its read. [`run`] uses the production batch grid,
//! one `Xoshiro256PlusPlus::stream(seed, batch)` per batch and the
//! batch-order merge, but runs the batches serially.
//!
//! Used by the root `vaet_reference` parity suite. Keep this module naive:
//! do not optimize it.
//!
//! [`VariationCard::sample_stack`]: mss_pdk::variation::VariationCard::sample_stack

use mss_mtj::switching::SwitchingModel;
use mss_units::rng::{normal, Rng, Xoshiro256PlusPlus};

use crate::context::{VaetContext, SENSE_OFFSET_SIGMA};
use crate::montecarlo::{BatchAcc, MonteCarloOptions, SampleConsts, Setup};
use crate::report::VaetReport;
use crate::VaetError;

/// Draws a thermal initial angle from the Rayleigh-like distribution.
pub(crate) fn thermal_angle<R: Rng + ?Sized>(rng: &mut R, delta: f64) -> f64 {
    // θ₀² ~ Exp(Δ): invert the CDF with a guarded uniform.
    let mut u: f64 = rng.next_f64();
    while u <= f64::MIN_POSITIVE {
        u = rng.next_f64();
    }
    (-u.ln() / delta).sqrt().min(std::f64::consts::FRAC_PI_2)
}

/// Per-bit precessional switching time with an explicit initial angle.
pub(crate) fn switching_time(sw: &SwitchingModel, i_write: f64, theta0: f64) -> f64 {
    let i = i_write / sw.critical_current();
    if i <= 1.0 {
        // Subcritical sample (deep process corner): report a pessimistic
        // 10x the nominal-style time so the tail is visible, bounded to
        // keep statistics finite.
        return 10.0 * sw.tau_d() * (std::f64::consts::FRAC_PI_2 / theta0.max(1e-6)).ln();
    }
    sw.tau_d() / (i - 1.0) * (std::f64::consts::FRAC_PI_2 / theta0.max(1e-9)).ln()
}

/// Simulates one word access (one write + one read) and records it.
fn sample_access<R: Rng + ?Sized>(
    ctx: &VaetContext,
    word: usize,
    consts: &SampleConsts,
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
        let stack = ctx
            .variation
            .sample_stack(rng, &ctx.stack)
            .map_err(VaetError::Device)?;
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
        let stack = ctx
            .variation
            .sample_stack(rng, &ctx.stack)
            .map_err(VaetError::Device)?;
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

/// The reference Monte Carlo: the report
/// [`montecarlo::run_with`](crate::montecarlo::run_with) must reproduce
/// bit for bit under a [`ParallelConfig`](mss_exec::ParallelConfig) whose
/// chunk is `chunk`, at any thread count.
///
/// # Errors
///
/// Same as [`montecarlo::run`](crate::montecarlo::run).
pub fn run(
    ctx: &VaetContext,
    opts: &MonteCarloOptions,
    chunk: usize,
) -> Result<VaetReport, VaetError> {
    let setup = Setup::new(ctx, opts)?;
    let chunk = chunk.max(1);
    let mut total = BatchAcc::default();
    for batch in 0..opts.samples.div_ceil(chunk) {
        let mut rng = Xoshiro256PlusPlus::stream(opts.seed, batch as u64);
        let mut acc = BatchAcc::default();
        for _ in batch * chunk..((batch + 1) * chunk).min(opts.samples) {
            sample_access(ctx, setup.word, &setup.consts, &mut rng, &mut acc)?;
        }
        total.merge(&acc);
    }
    Ok(setup.report(ctx, opts, &total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_angle_statistics() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(10);
        let delta = 45.0;
        let mean_sq: f64 = (0..20_000)
            .map(|_| thermal_angle(&mut rng, delta).powi(2))
            .sum::<f64>()
            / 20_000.0;
        // E[theta^2] = 1/Delta.
        assert!(
            (mean_sq * delta - 1.0).abs() < 0.05,
            "mean_sq*delta = {}",
            mean_sq * delta
        );
    }
}
