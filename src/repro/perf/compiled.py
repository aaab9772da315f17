"""Compiled hot-path tier: backend resolution and kernel dispatch.

The fast engine runs its hot paths at one of two tiers:

``numpy``
    The vectorized implementations, kept as the **oracle** — nothing
    about their behavior changes here.
``compiled``
    The **default**: machine-code kernels for the per-event sequential
    recursions that numpy cannot vectorize (Lindley token-bucket
    replay, CUSUM/EWMA scans, congestion-aware routing), written in C,
    compiled once per machine with the system toolchain
    (:mod:`repro.perf._cc`) and bound through :mod:`ctypes` by
    :class:`KernelSet`.

    The kernels replay the numpy arithmetic operation for operation, so
    the compiled tier is *bit-identical* to the numpy tier wherever the
    numpy tier is exact (accept/drop decisions, congestion flags,
    injection schedules, detector flag sequences, Welford folds) —
    property-tested in ``tests/perf/test_compiled_kernels.py`` and
    ``tests/perf/test_compiled_tier.py``.

Tier selection is data (``PacketSimConfig.tier``, ``compiled`` unless
the caller names ``numpy``), resolved here. The compiled tier with no C
compiler (or a failed build) degrades to ``numpy`` with a one-time
:class:`CompiledTierUnavailableWarning` naming the reason, whether the
caller asked for it or took the default, so code never has to guard on
the environment. Code with no user-visible tier (the traffic monitor's
detector scan) takes the C kernel whenever the library loads, silently:
the two are bit-identical, so the choice is the platform's, not the
caller's.
"""

from __future__ import annotations

import ctypes
import dataclasses
import warnings
from typing import Any, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.errors import SimulationError
from repro.perf import _cc

__all__ = [
    "TIERS",
    "CompiledTierUnavailableWarning",
    "CongestionTable",
    "KernelSet",
    "available_tiers",
    "compiled_backend",
    "detect_bins_batch",
    "get_kernels",
    "resolve_tier",
]

#: Every tier, slowest first.
TIERS: Tuple[str, ...] = ("numpy", "compiled")


class CompiledTierUnavailableWarning(RuntimeWarning):
    """Issued (once) when the compiled tier degrades to numpy."""


_WARNED = False


def compiled_backend() -> Optional[str]:
    """``"cc"`` when the bundled C kernels are usable, else None."""
    return "cc" if _cc.load_library() is not None else None


def available_tiers() -> Tuple[str, ...]:
    """The subset of :data:`TIERS` runnable in this environment."""
    if compiled_backend() is None:
        return ("numpy",)
    return TIERS


def resolve_tier(tier: str) -> str:
    """Validate ``tier`` and degrade ``compiled`` -> ``numpy`` if needed.

    The degradation warns exactly once per process (the numpy tier is
    bit-identical wherever exactness is promised, so silence afterwards
    is safe — only speed is lost).
    """
    global _WARNED
    if tier not in TIERS:
        raise SimulationError(
            f"tier must be one of {TIERS}, got {tier!r}"
        )
    if tier == "compiled" and compiled_backend() is None:
        if not _WARNED:
            _WARNED = True
            reason = _cc.build_error() or "cc backend unavailable"
            warnings.warn(
                "the compiled tier (tier='compiled', the default) is "
                f"unavailable ({reason}); running the numpy tier instead "
                "(bit-identical, slower)",
                CompiledTierUnavailableWarning,
                stacklevel=2,
            )
        return "numpy"
    return tier


@dataclasses.dataclass(frozen=True)
class CongestionTable:
    """Per-slot congestion timelines in flat searchable form.

    ``offsets[s] : offsets[s + 1]`` spans slot ``s``'s chronologically
    sorted event ``times`` and the congested-after-event ``flags``, so a
    node's congestion state at any instant is one binary search. Every
    tier builds and reads this one format.
    """

    offsets: npt.NDArray[np.int64]  # (m + 1,)
    times: npt.NDArray[np.float64]  # (n,) grouped, time-sorted
    flags: npt.NDArray[np.uint8]  # (n,)

    @classmethod
    def empty(cls, m: int) -> "CongestionTable":
        return cls(
            offsets=np.zeros(m + 1, dtype=np.int64),
            times=np.empty(0, dtype=np.float64),
            flags=np.empty(0, dtype=np.uint8),
        )


_I64P = ctypes.POINTER(ctypes.c_int64)
_F64P = ctypes.POINTER(ctypes.c_double)
_U8P = ctypes.POINTER(ctypes.c_uint8)


def _as_c(array: np.ndarray, dtype: Any) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=dtype)


class KernelSet:
    """ctypes binding to the bundled C kernel library.

    Every method takes and returns numpy arrays; scratch allocation and
    pointer plumbing stay in here so the fast engine never sees them.
    """

    def __init__(self) -> None:
        self._library = _cc.load_library()
        if self._library is None:  # pragma: no cover - defensive
            raise SimulationError("compiled tier requested but unavailable")

    # ------------------------------------------------------------------
    # Grouped token-bucket Lindley replay
    # ------------------------------------------------------------------
    def _scan_raw(
        self,
        slots: np.ndarray,
        times: np.ndarray,
        m: int,
        capacity: float,
        burst: float,
        want_flags: bool,
    ) -> Tuple[np.ndarray, ...]:
        slots = _as_c(slots, np.int64)
        times = _as_c(times, np.float64)
        n = len(slots)
        accept = np.zeros(n, dtype=np.uint8)
        offered = np.zeros(m, dtype=np.int64)
        accepted = np.zeros(m, dtype=np.int64)
        offsets = np.zeros(m + 1, dtype=np.int64)
        order = np.empty(n, dtype=np.int64)
        flags = np.zeros(n, dtype=np.uint8)
        tsorted = np.empty(n, dtype=np.float64)
        cursor = np.empty(m, dtype=np.int64)
        tmp = np.empty(n, dtype=np.int64)
        svals = np.empty(n, dtype=np.float64)
        self._library.repro_bucket_scan(
            slots.ctypes.data_as(_I64P),
            times.ctypes.data_as(_F64P),
            n,
            m,
            capacity,
            burst,
            1 if want_flags else 0,
            accept.ctypes.data_as(_U8P),
            offered.ctypes.data_as(_I64P),
            accepted.ctypes.data_as(_I64P),
            offsets.ctypes.data_as(_I64P),
            order.ctypes.data_as(_I64P),
            flags.ctypes.data_as(_U8P),
            tsorted.ctypes.data_as(_F64P),
            cursor.ctypes.data_as(_I64P),
            tmp.ctypes.data_as(_I64P),
            svals.ctypes.data_as(_F64P),
        )
        return accept, offered, accepted, offsets, order, flags, tsorted

    def bucket_scan(
        self,
        slots: np.ndarray,
        times: np.ndarray,
        m: int,
        capacity: float,
        burst: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Grouped token-bucket replay: returns ``(accept, unique_slots,
        accepted_per, dropped_per)`` with accept aligned to the *input*
        event order (``fastsim._grouped_bucket_scan``'s convention)."""
        accept, offered, accepted, _, _, _, _ = self._scan_raw(
            slots, times, m, capacity, burst, want_flags=False
        )
        unique_slots = np.nonzero(offered)[0].astype(np.int64)
        accepted_per = accepted[unique_slots]
        dropped_per = offered[unique_slots] - accepted_per
        return accept.astype(bool), unique_slots, accepted_per, dropped_per

    def timeline_table(
        self,
        slots: np.ndarray,
        times: np.ndarray,
        m: int,
        capacity: float,
        burst: float,
    ) -> CongestionTable:
        """Congestion timelines for every slot present in the events."""
        if len(slots) == 0:
            return CongestionTable.empty(m)
        _, _, _, offsets, _, flags, tsorted = self._scan_raw(
            slots, times, m, capacity, burst, want_flags=True
        )
        return CongestionTable(offsets=offsets, times=tsorted, flags=flags)

    # ------------------------------------------------------------------
    # Fused congestion lookup + uniform routing
    # ------------------------------------------------------------------
    def route(
        self,
        u: np.ndarray,
        neighbor_slots: np.ndarray,
        healthy: np.ndarray,
        decision_t: np.ndarray,
        table: CongestionTable,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(routable, chosen)`` — the two-step numpy routing fused."""
        u = _as_c(u, np.float64)
        nbr = _as_c(neighbor_slots, np.int64)
        healthy8 = _as_c(healthy, np.uint8)
        decision_t = _as_c(decision_t, np.float64)
        rows, cols = nbr.shape
        m = len(table.offsets) - 1
        routable = np.zeros(rows, dtype=np.uint8)
        chosen = np.empty(rows, dtype=np.int64)
        cursor = np.empty(max(m, 1), dtype=np.int64)
        scratch = np.empty(max(cols, 1), dtype=np.uint8)
        self._library.repro_route(
            u.ctypes.data_as(_F64P),
            nbr.ctypes.data_as(_I64P),
            healthy8.ctypes.data_as(_U8P),
            decision_t.ctypes.data_as(_F64P),
            rows,
            cols,
            m,
            table.offsets.ctypes.data_as(_I64P),
            table.times.ctypes.data_as(_F64P),
            table.flags.ctypes.data_as(_U8P),
            cursor.ctypes.data_as(_I64P),
            scratch.ctypes.data_as(_U8P),
            routable.ctypes.data_as(_U8P),
            chosen.ctypes.data_as(_I64P),
        )
        return routable.astype(bool), chosen

    # ------------------------------------------------------------------
    # Streaming Welford fold
    # ------------------------------------------------------------------
    def welford(
        self,
        values: np.ndarray,
        count: int,
        mean: float,
        m2: float,
        maxv: float,
    ) -> Tuple[int, float, float, float]:
        values = _as_c(values, np.float64)
        c_count = ctypes.c_int64(count)
        c_mean = ctypes.c_double(mean)
        c_m2 = ctypes.c_double(m2)
        c_max = ctypes.c_double(maxv)
        self._library.repro_welford(
            values.ctypes.data_as(_F64P),
            len(values),
            ctypes.byref(c_count),
            ctypes.byref(c_mean),
            ctypes.byref(c_m2),
            ctypes.byref(c_max),
        )
        return c_count.value, c_mean.value, c_m2.value, c_max.value

    # ------------------------------------------------------------------
    # Batched CUSUM/EWMA scan
    # ------------------------------------------------------------------
    def detect_bins(
        self,
        series: np.ndarray,
        means: np.ndarray,
        sigmas: np.ndarray,
        base_end: int,
        method: str,
        threshold: float,
        drift: float,
        alpha: float,
    ) -> npt.NDArray[np.int64]:
        series = _as_c(series, np.float64)
        means = _as_c(means, np.float64)
        sigmas = _as_c(sigmas, np.float64)
        rows, bins = series.shape
        method_code = 0 if method == "cusum" else 1
        out = np.empty(rows, dtype=np.int64)
        self._library.repro_detect(
            series.ctypes.data_as(_F64P),
            rows,
            bins,
            means.ctypes.data_as(_F64P),
            sigmas.ctypes.data_as(_F64P),
            base_end,
            method_code,
            threshold,
            drift,
            alpha,
            out.ctypes.data_as(_I64P),
        )
        return out


_KERNELS: Optional[KernelSet] = None


def get_kernels(tier: str) -> Optional[KernelSet]:
    """The compiled :class:`KernelSet` for ``tier``, or ``None``.

    ``None`` means "run the numpy tier's code path".
    """
    global _KERNELS
    if tier != "compiled" or compiled_backend() is None:
        return None
    if _KERNELS is None:
        _KERNELS = KernelSet()
    return _KERNELS


# ----------------------------------------------------------------------
# Batched detector scan (numpy fallback) + dispatch for TrafficMonitor
# ----------------------------------------------------------------------


def _detect_bins_numpy(
    series: npt.NDArray[np.float64],
    means: npt.NDArray[np.float64],
    sigmas: npt.NDArray[np.float64],
    base_end: int,
    method: str,
    threshold: float,
    drift: float,
    alpha: float,
) -> npt.NDArray[np.int64]:
    """CUSUM/EWMA first crossings vectorized across nodes.

    The recursion runs bin by bin over a *vector* of per-node statistics;
    each element performs the exact float operations of the per-node
    ``_detection_bin`` loop in the same order, so crossings are
    bit-identical to the per-node scan.
    """
    rows, bins = series.shape
    out = np.full(rows, -1, dtype=np.int64)
    if bins <= base_end:
        return out
    pending = np.ones(rows, dtype=bool)
    if method == "cusum":
        statistic = np.zeros(rows, dtype=np.float64)
        for index in range(base_end, bins):
            deviation = (series[:, index] - means) / sigmas
            statistic = np.maximum(0.0, (statistic + deviation) - drift)
            crossed = pending & (statistic > threshold)
            out[crossed] = index
            pending &= ~crossed
            if not bool(pending.any()):
                break
        return out
    smoothed = means.copy()
    for index in range(base_end, bins):
        smoothed = alpha * series[:, index] + (1.0 - alpha) * smoothed
        crossed = pending & ((smoothed - means) / sigmas > threshold)
        out[crossed] = index
        pending &= ~crossed
        if not bool(pending.any()):
            break
    return out


def detect_bins_batch(
    series: npt.NDArray[np.float64],
    means: npt.NDArray[np.float64],
    sigmas: npt.NDArray[np.float64],
    base_end: int,
    method: str,
    threshold: float,
    drift: float,
    alpha: float,
) -> npt.NDArray[np.int64]:
    """First-crossing bin per series row (-1 = never).

    ``series`` rows share one horizon; ``means``/``sigmas`` are the
    per-row baseline statistics (computed by the caller with the
    per-node scan's exact numpy calls). Runs the C scan when the kernel
    library loads and :func:`_detect_bins_numpy` otherwise.
    """
    series = np.ascontiguousarray(series, dtype=np.float64)
    kernels = get_kernels("compiled")
    if kernels is not None:
        return kernels.detect_bins(
            series, means, sigmas, base_end, method, threshold, drift, alpha
        )
    return _detect_bins_numpy(
        series, means, sigmas, base_end, method, threshold, drift, alpha
    )


def _reset_for_tests() -> None:
    """Forget the loaded library and the one-time warning (test hook)."""
    global _WARNED, _KERNELS
    _cc._reset_for_tests()
    _WARNED = False
    _KERNELS = None
