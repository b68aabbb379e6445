"""Embedded DSP-block multiplier extension.

The paper focuses on LUT-based generic multipliers but notes (Sec. I) the
framework "can be easily extended to accommodate embedded DSP blocks
currently available in modern FPGAs", and (Sec. VI) that "embedded
multipliers perform multiplications with large word-lengths faster, but
they are out of scope of the present work".  This package supplies that
extension: a behavioural hard-macro multiplier with its own timing
and over-clocking model, plus a characterisation harness compatible with
the error-model machinery.
"""

from typing import Any

from .._lazy import load_export

_EXPORTS = (
    (".block", ("DspBlockModel", "DspCaptureResult")),
    (".characterize", ("characterize_dsp_multiplier",)),
)

__all__ = ["DspBlockModel", "DspCaptureResult", "characterize_dsp_multiplier"]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
