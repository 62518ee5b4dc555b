"""Measurement-noise models for the simulated systems.

The paper's central empirical theme is that memory-traffic measurements
of *small* kernels are "fraught with noise, regardless of the measuring
infrastructure or architecture", while large kernels measure cleanly.
Three mechanisms produce that behaviour here, all seeded and
deterministic:

1. **Background traffic** — the OS, service daemons (including PMCD
   itself) and the measurement harness continuously move memory. The
   nest counters are socket-wide, so this traffic lands inside every
   measurement window, proportional to the window's wall-clock length.
2. **Capture jitter** — nest counters aggregate and post updates with
   finite latency; a kernel that runs for microseconds sees a
   multiplicative error that shrinks as runtime grows ("smaller
   operations execute too quickly for the counters to accurately
   reflect the hardware activity").
3. **Window overhead** — reading counters is not free. The PCP path
   pays a daemon round-trip per fetch (milliseconds), the direct
   perf_uncore path a syscall (microseconds). Both extend the window
   and therefore admit more background traffic; this is the *only*
   systematic difference between the two measurement paths, which is
   why PCP measurements are "as accurate as" direct ones once problems
   are large.

Averaging over repetitions (Eq. 5) amortises mechanisms 1 and 3 and
suppresses 2 by :math:`1/\\sqrt{reps}` — exactly the paper's remedy.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..machine.cache import TrafficCounters
from ..rng import substream


@dataclasses.dataclass(frozen=True)
class NoiseConfig:
    """Tunable parameters of the noise model."""

    #: Mean background read traffic per socket (bytes / second).
    background_read_rate: float = 30e6
    #: Mean background write traffic per socket (bytes / second).
    background_write_rate: float = 6e6
    #: Sigma of the lognormal jitter applied to background rates.
    background_sigma: float = 0.6
    #: Fixed traffic per measurement *window* (bytes), independent of
    #: window length: page-table churn, harness setup, daemon bursts
    #: triggered by the measurement itself. Amortised by repetitions;
    #: responsible for the slow convergence of small write volumes
    #: (capped GEMV, Fig 5) and the small-problem noise floor (Fig 2).
    fixed_read_bytes: float = 1.2e6
    fixed_write_bytes: float = 0.8e6
    #: Fixed traffic per kernel *repetition* (bytes): the paper uses a
    #: fresh matrix per repetition, so every repetition pays page
    #: faults / first-touch zeroing outside the kernel's own traffic.
    #: NOT amortised by averaging — this is why small write volumes
    #: (capped GEMV) stay above expectation until M ≈ 10⁴ (Fig 5).
    per_rep_read_bytes: float = 1.2e5
    per_rep_write_bytes: float = 2.0e5
    #: Multiplicative capture-jitter magnitude at zero runtime.
    capture_sigma0: float = 0.35
    #: Runtime scale (seconds) over which capture jitter decays.
    capture_time_scale: float = 2.0e-3
    #: Extra wall-clock overhead per counter-read round trip (seconds).
    #: PCP pays a daemon round trip; direct reads a syscall.
    window_overhead_pcp: float = 2.5e-3
    #: Direct (perf_uncore) read overhead (seconds).
    window_overhead_direct: float = 2.0e-5

    def window_overhead(self, via_pcp: bool) -> float:
        return self.window_overhead_pcp if via_pcp else self.window_overhead_direct


#: Noise configuration with every mechanism disabled, for deterministic
#: traffic-law tests.
QUIET = NoiseConfig(
    background_read_rate=0.0,
    background_write_rate=0.0,
    background_sigma=0.0,
    fixed_read_bytes=0.0,
    fixed_write_bytes=0.0,
    per_rep_read_bytes=0.0,
    per_rep_write_bytes=0.0,
    capture_sigma0=0.0,
    window_overhead_pcp=0.0,
    window_overhead_direct=0.0,
)


class RepetitionDraws(NamedTuple):
    """Noise of ``n`` back-to-back kernel repetitions, drawn in one call
    (see :meth:`NoiseModel.repetition_draws`)."""

    #: ``(n,)`` capture factors (all 1.0 when capture jitter is off).
    capture: np.ndarray
    #: ``(n, 2)`` int64 first-touch (read, write) bytes per repetition.
    first_touch: np.ndarray
    #: ``(n, 2)`` int64 background (read, write) bytes of each
    #: repetition's clock step, or None when no step background was drawn.
    background: Optional[np.ndarray]


class NoiseModel:
    """Seeded sampler for the three noise mechanisms.

    One instance per (machine, experiment) pair; every call draws from
    an independent deterministic substream so the simulated "runs" are
    reproducible yet mutually independent.
    """

    def __init__(self, config: Optional[NoiseConfig] = None,
                 seed: Optional[int] = None, label: str = "noise"):
        self.config = config or NoiseConfig()
        self._rng = substream(seed, label)

    # ------------------------------------------------------------------
    def background_traffic(self, window_seconds: float) -> TrafficCounters:
        """Background bytes landing in a window of given length."""
        return TrafficCounters(*self.background_bytes(window_seconds))

    def background_bytes(self, window_seconds: float) -> Tuple[int, int]:
        """``(read, write)`` background bytes of one window: the read
        and the write jitter come from one two-value draw."""
        cfg = self.config
        if window_seconds <= 0:
            return 0, 0
        sigma = cfg.background_sigma
        if sigma == 0.0:
            jitter_r = jitter_w = 1.0
        else:
            jitter_r, jitter_w = np.exp(self._rng.normal(
                -0.5 * sigma * sigma, sigma, 2)).tolist()
        return (int(cfg.background_read_rate * window_seconds * jitter_r),
                int(cfg.background_write_rate * window_seconds * jitter_w))

    def background_steps(self, dt: float, steps: int) -> np.ndarray:
        """``(steps, 2)`` int64 background (read, write) bytes of
        ``steps`` windows of ``dt`` seconds each, drawn in one call:
        the same values and generator state as ``steps`` calls of
        :meth:`background_bytes`."""
        cfg = self.config
        sigma = cfg.background_sigma
        if sigma == 0.0:
            jitter = np.ones((steps, 2))
        else:
            jitter = np.exp(self._rng.normal(-0.5 * sigma * sigma, sigma,
                                             (steps, 2)))
        rates = np.array([cfg.background_read_rate * dt,
                          cfg.background_write_rate * dt])
        return (rates * jitter).astype(np.int64)

    def window_fixed_traffic(self) -> TrafficCounters:
        """Fixed per-measurement-window traffic (jittered sample).

        Charged once per start/stop window regardless of its length —
        the harness, page-table churn and daemon bursts triggered by
        the measurement itself."""
        cfg = self.config
        return TrafficCounters(
            read_bytes=int(cfg.fixed_read_bytes
                           * self._lognormal(cfg.background_sigma)),
            write_bytes=int(cfg.fixed_write_bytes
                            * self._lognormal(cfg.background_sigma)),
        )

    def per_rep_traffic(self) -> TrafficCounters:
        """Fixed traffic per kernel repetition (jittered sample) — the
        fresh-buffer first-touch cost; see :class:`NoiseConfig`."""
        cfg = self.config
        return TrafficCounters(
            read_bytes=int(cfg.per_rep_read_bytes
                           * self._lognormal(cfg.background_sigma)),
            write_bytes=int(cfg.per_rep_write_bytes
                            * self._lognormal(cfg.background_sigma)),
        )

    def capture_factor(self, runtime_seconds: float) -> float:
        """Multiplicative counter-capture factor for one kernel run.

        Approaches 1.0 as runtime grows; noisy (but never negative) for
        very short kernels.
        """
        cfg = self.config
        if cfg.capture_sigma0 == 0.0:
            return 1.0
        sigma = cfg.capture_sigma0 / (1.0 + runtime_seconds / cfg.capture_time_scale)
        return float(max(0.0, self._rng.normal(1.0, sigma)))

    def repetition_draws(self, repetitions: int, runtime_seconds: float,
                         step_seconds: float = 0.0) -> RepetitionDraws:
        """Noise of ``repetitions`` back-to-back kernel runs in one draw.

        The values and the generator state equal those of drawing
        repetition by repetition: :meth:`capture_factor`, then
        :meth:`per_rep_traffic`, then -- when ``step_seconds > 0`` --
        the :meth:`background_bytes` of a clock step of that length.
        One ``normal`` call lays these columns out row by row, with
        each column's own mean and sigma, and leaves out exactly the
        columns the scalar calls skip (a zero ``capture_sigma0`` or
        ``background_sigma``). DESIGN.md §6.7 gives the argument.
        """
        cfg = self.config
        sigma = cfg.background_sigma
        # Bytes per unit of jitter: first touch, then the step's background.
        coef = [cfg.per_rep_read_bytes, cfg.per_rep_write_bytes]
        if step_seconds > 0:
            coef += [cfg.background_read_rate * step_seconds,
                     cfg.background_write_rate * step_seconds]
        loc, scale = [], []
        if cfg.capture_sigma0 != 0.0:
            loc.append(1.0)
            scale.append(cfg.capture_sigma0
                         / (1.0 + runtime_seconds / cfg.capture_time_scale))
        if sigma != 0.0:
            loc += [-0.5 * sigma * sigma] * len(coef)
            scale += [sigma] * len(coef)
        z = (self._rng.normal(loc, scale, (repetitions, len(loc)))
             if loc else None)
        if cfg.capture_sigma0 != 0.0:
            capture = np.maximum(z[:, 0], 0.0)
        else:
            capture = np.ones(repetitions)
        if sigma != 0.0:
            # Contiguous, as a scalar np.exp argument is.
            jitter = np.exp(np.ascontiguousarray(z[:, len(loc) - len(coef):]))
        else:
            jitter = np.ones((repetitions, len(coef)))
        nbytes = (np.array(coef) * jitter).astype(np.int64)
        return RepetitionDraws(capture, nbytes[:, :2],
                               nbytes[:, 2:] if step_seconds > 0 else None)

    def perturb(self, true_traffic: TrafficCounters, runtime_seconds: float,
                via_pcp: bool, repetitions: int = 1) -> TrafficCounters:
        """Measured traffic for ``repetitions`` back-to-back kernel runs.

        The kernels run inside a *single* measurement window (the
        paper's repetition scheme), so the window overhead is paid once
        while the true traffic scales with ``repetitions``. Returns the
        per-repetition average, which is what the experiments plot.
        """
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        window = runtime_seconds * repetitions + self.config.window_overhead(via_pcp)
        bg = self.background_traffic(window)
        fixed_r = self.config.fixed_read_bytes * self._lognormal(
            self.config.background_sigma)
        fixed_w = self.config.fixed_write_bytes * self._lognormal(
            self.config.background_sigma)
        draws = self.repetition_draws(repetitions, runtime_seconds)
        true = np.array([true_traffic.read_bytes, true_traffic.write_bytes])
        # cumsum adds in repetition order, as a running total would.
        total_read, total_write = np.cumsum(
            draws.capture[:, None] * true + draws.first_touch, axis=0)[-1]
        return TrafficCounters(
            read_bytes=int((total_read + bg.read_bytes + fixed_r) / repetitions),
            write_bytes=int((total_write + bg.write_bytes + fixed_w) / repetitions),
        )

    # ------------------------------------------------------------------
    def _lognormal(self, sigma: float) -> float:
        if sigma == 0.0:
            return 1.0
        # Mean-one lognormal: exp(N(-sigma^2/2, sigma)).
        return float(np.exp(self._rng.normal(-0.5 * sigma * sigma, sigma)))
