"""Spiking spatial-temporal adaptive-graph forecaster.

Importing the package tunes glibc's allocator (on glibc only, see
`_keep_freed_heap`).  A train step or inference batch allocates and frees
thousands of numpy temporaries.  In a train step of the default model the
largest are 8 MiB, the (B, T', N, h) float32 arrays: the DSF re-encoder's
potentials and its backward's temporaries (the LSTM keeps (h, c) only where
one of its chunks begins).
With glibc's defaults, large arrays are mmapped and the freed heap top is
trimmed, so every step faulted its pages in again: ~6,600 minor faults per
batch of the infer-ts8 benchmark and 3,000-6,100 per train step.  After the
import, arrays under 64 MiB come from the heap, and freed
heap stays mapped for the next step, which then takes no page faults.  The
cost is memory held between steps: the process's RSS stays at its high-water
mark instead of dropping back once a step's arrays are freed.  Set glibc's
`MALLOC_MMAP_THRESHOLD_`, `MALLOC_TRIM_THRESHOLD_` or a `glibc.malloc.*`
entry of `GLIBC_TUNABLES` to keep the allocator as configured there.
"""

import ctypes
import os

from .autograd import Tensor, backward, no_grad
from .model import ForecastModel, ModelConfig, train
from .spiking import LifParams

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "backward",
    "no_grad",
    "ForecastModel",
    "ModelConfig",
    "train",
    "LifParams",
    "__version__",
]

# mallopt parameters, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_BYTES = 64 * 2**20   # above every per-step buffer of the default and benchmark configs
_TRIM_BYTES = 2**30


def _keep_freed_heap() -> bool:
    """Raise glibc's mmap and trim thresholds; True when both took effect.

    Both are needed: setting the trim threshold alone switches off glibc's
    dynamic mmap threshold, so large arrays would be mmapped (and faulted in)
    afresh on every step.  Does nothing and returns False off glibc, when libc
    has no `mallopt`, or when the environment already configures malloc.
    """
    env = os.environ
    if ("MALLOC_MMAP_THRESHOLD_" in env or "MALLOC_TRIM_THRESHOLD_" in env
            or "glibc.malloc." in env.get("GLIBC_TUNABLES", "")):
        return False
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES) == 1)


_keep_freed_heap()
