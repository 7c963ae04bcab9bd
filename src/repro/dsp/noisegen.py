"""Noise synthesis with prescribed spectra.

The waveform simulator needs ambient noise whose in-band power matches the
Wenz level computed by :mod:`repro.acoustics.noise`, with approximately the
right spectral tilt across the receiver band. Noise is generated in the
frequency domain: complex white Gaussian bins shaped by the target PSD.

The PSD shaping amplitude depends only on ``(n, fs, carrier_hz, psd)``
and the optional gain and white floor — it is identical for every trial
of a Monte-Carlo point — so it is memoized here (see
:func:`clear_noise_cache`). Campaigns that used to spend ~80% of each
trial re-evaluating the Wenz curves per FFT bin now pay for the shaping
filter once per operating point.

A white floor added to shaped noise is folded into the same filter
rather than drawn separately: both are circular Gaussian processes with
circulant spectra, so one draw shaped by ``sqrt((gain*A)^2 + floor/2)``
has exactly the second-order statistics of the sum, at half the normals.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.rng import fallback_rng

_SHAPE_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_SHAPE_CACHE_MAX = 64


def clear_noise_cache() -> None:
    """Explicitly invalidate the memoized PSD shaping filters."""
    _SHAPE_CACHE.clear()


def noise_cache_info() -> Tuple[int, int]:
    """(entries, capacity) of the shaping-filter cache."""
    return len(_SHAPE_CACHE), _SHAPE_CACHE_MAX


def white_noise(
    n: int, power: float, rng: Optional[np.random.Generator] = None, complex_: bool = True
) -> np.ndarray:
    """Complex (or real) white Gaussian noise with a given average power.

    Args:
        n: number of samples.
        power: target mean square value E[|x|^2].
        rng: random generator; thread one from campaign seeds, or the
            documented process-global fallback stream is used
            (:func:`repro.rng.fallback_rng`).
        complex_: circular complex noise if True, real if False.
    """
    if power < 0:
        raise ValueError("power must be non-negative")
    if rng is None:
        rng = fallback_rng()
    if complex_:
        scale = np.sqrt(power / 2.0)
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return np.sqrt(power) * rng.standard_normal(n)


def _psd_fn_cache_key(psd_db_fn: Callable[[float], float]):
    """A hashable identity for a PSD callable, or None when uncachable.

    Bound methods of value-type objects (e.g. ``NoiseConditions.psd_db``)
    compare by instance *identity*, which would defeat the cache across
    equal-but-distinct scenario objects — so key on ``(func, self)``
    where ``self`` hashes by value.
    """
    bound_self = getattr(psd_db_fn, "__self__", None)
    if bound_self is not None:
        try:
            hash(bound_self)
        except TypeError:
            return None
        return (getattr(psd_db_fn, "__func__", psd_db_fn), bound_self)
    try:
        hash(psd_db_fn)
    except TypeError:
        return None
    return psd_db_fn


def _evaluate_psd_db(
    psd_db_fn: Callable[[float], float], abs_freqs: np.ndarray
) -> np.ndarray:
    """PSD in dB at each frequency, vectorized when the callable allows.

    Callables exposing a vectorized form (``psd_db_array`` attribute on
    the bound object, e.g. :class:`repro.acoustics.noise.NoiseConditions`)
    or natively accepting arrays are evaluated in one shot; anything else
    falls back to the per-frequency loop.
    """
    clamped = np.maximum(abs_freqs, 1.0)
    bound_self = getattr(psd_db_fn, "__self__", None)
    array_fn = getattr(bound_self, "psd_db_array", None)
    if array_fn is not None:
        return np.asarray(array_fn(clamped), dtype=np.float64)
    try:
        out = np.asarray(psd_db_fn(clamped), dtype=np.float64)
        if out.shape == clamped.shape:
            return out
    except Exception:
        pass
    return np.array([psd_db_fn(float(f)) for f in clamped], dtype=np.float64)


def _shaping_amplitude(
    n: int,
    fs: float,
    psd_db_fn: Callable[[float], float],
    carrier_hz: float,
    gain: float = 1.0,
    floor_power: float = 0.0,
) -> np.ndarray:
    """Per-bin amplitude ``sqrt((gain*A)^2 + floor_power/2)``, memoized.

    ``A = sqrt(PSD * fs / 2)`` shapes unit complex bins to the PSD; a
    flat ``floor_power/2`` per bin adds white noise of mean power
    ``floor_power``. At ``gain=1`` and no floor the amplitude is ``A``
    itself, bit for bit.
    """
    key = None
    fn_key = _psd_fn_cache_key(psd_db_fn)
    if fn_key is not None:
        key = (fn_key, n, float(fs), float(carrier_hz), float(gain),
               float(floor_power))
        cached = _SHAPE_CACHE.get(key)
        if cached is not None:
            _SHAPE_CACHE.move_to_end(key)
            return cached
    freqs = np.fft.fftfreq(n, d=1.0 / fs)
    psd_linear = 10.0 ** (_evaluate_psd_db(psd_db_fn, carrier_hz + freqs) / 10.0)
    amplitude = np.sqrt(psd_linear * fs / 2.0)
    if gain != 1.0 or floor_power != 0.0:
        amplitude = np.sqrt((gain * amplitude) ** 2 + floor_power / 2.0)
    amplitude.setflags(write=False)
    if key is not None:
        _SHAPE_CACHE[key] = amplitude
        if len(_SHAPE_CACHE) > _SHAPE_CACHE_MAX:
            _SHAPE_CACHE.popitem(last=False)
    return amplitude


def colored_noise(
    n: int,
    fs: float,
    psd_db_fn: Callable[[float], float],
    carrier_hz: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Complex baseband noise matching an absolute passband PSD.

    The returned samples represent passband noise around ``carrier_hz``
    translated to baseband: bin ``f`` of the output spectrum is shaped by
    ``psd_db_fn(carrier_hz + f)``. Mean-square value equals the PSD
    integrated across the simulated bandwidth ``fs``.

    Args:
        n: number of samples.
        fs: sample rate (simulated bandwidth), Hz.
        psd_db_fn: function mapping absolute frequency (Hz) to PSD in
            dB re 1 uPa^2/Hz (or any consistent unit).
        carrier_hz: centre frequency the baseband is referenced to.
        rng: random generator; thread one from campaign seeds, or the
            documented process-global fallback stream is used
            (:func:`repro.rng.fallback_rng`).

    Returns:
        Complex baseband noise samples of length ``n``.
    """
    if n <= 0:
        return np.zeros(0, dtype=np.complex128)
    if rng is None:
        rng = fallback_rng()
    # Bin amplitude: each FFT bin spans fs/n Hz of PSD; synthesise unit
    # white bins then scale so E[|x[t]|^2] = integral of PSD.
    bins = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    bins *= _shaping_amplitude(n, fs, psd_db_fn, carrier_hz)
    noise = np.fft.ifft(bins) * np.sqrt(n)
    return noise.astype(np.complex128)


def white_noise_batch(
    n: int, power: float, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """One row of complex white noise per generator, shape ``(len(rngs), n)``.

    Row ``t`` is drawn from ``rngs[t]`` with the exact draw sequence of
    :func:`white_noise`. The simulator folds its white floor into
    :func:`colored_noise_batch` instead; this stays as the reference for
    that fold.
    """
    if power < 0:
        raise ValueError("power must be non-negative")
    rows = np.empty((len(rngs), n), dtype=np.complex128)
    scale = np.sqrt(power / 2.0)
    for t, rng in enumerate(rngs):
        rows[t] = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return rows


def colored_noise_batch(
    n: int,
    fs: float,
    psd_db_fn: Callable[[float], float],
    carrier_hz: float,
    rngs: Sequence[np.random.Generator],
    gain: float = 1.0,
    floor_power: float = 0.0,
) -> np.ndarray:
    """One row of shaped noise per generator, shape ``(len(rngs), n)``.

    Each generator makes exactly one request, ``standard_normal`` of
    ``2n`` (the real parts of the bins, then the imaginary parts), so a
    row depends only on its own stream: batch, chunk and worker splits
    cannot move a bit. The PSD shaping and the inverse FFT then run once
    over the whole ``(trials, n)`` block; both act on rows independently,
    so at the defaults each row is bit-identical to :func:`colored_noise`
    with the same generator.

    Args:
        n: samples per row.
        fs: sample rate (simulated bandwidth), Hz.
        psd_db_fn: absolute frequency (Hz) to PSD in dB, as for
            :func:`colored_noise`.
        carrier_hz: centre frequency the baseband is referenced to.
        rngs: one generator per row.
        gain: amplitude gain on the shaped part (a receiver noise
            figure, ``10**(nf_db/20)``).
        floor_power: mean power of a flat white floor added to every
            row (e.g. residual self-interference), drawn in the same
            bins rather than separately.
    """
    if floor_power < 0:
        raise ValueError("floor_power must be non-negative")
    trials = len(rngs)
    if n <= 0:
        return np.zeros((trials, 0), dtype=np.complex128)
    draws = np.empty((trials, 2, n))
    for t, rng in enumerate(rngs):
        rng.standard_normal(out=draws[t])
    # Bin amplitude: each FFT bin spans fs/n Hz of PSD; unit white bins
    # are scaled so E[|x[t]|^2] = integral of the PSD (+ the floor).
    amplitude = _shaping_amplitude(
        n, fs, psd_db_fn, carrier_hz, gain, floor_power
    )
    bins = np.empty((trials, n), dtype=np.complex128)
    np.multiply(draws[:, 0], amplitude, out=bins.real)
    np.multiply(draws[:, 1], amplitude, out=bins.imag)
    noise = np.fft.ifft(bins, axis=1)
    noise *= np.sqrt(n)
    return noise
