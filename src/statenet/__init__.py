"""Graph-structured stateful neurons with in-rollout synaptic plasticity.

The package builds directed, possibly cyclic networks of simple stateful
cells (continuous rate units or leaky integrate-and-fire spiking units)
whose edge weights can evolve during a rollout under Hebbian or
spike-timing rules, and trains them to reproduce recorded output
sequences with backpropagation through time (optionally truncated).
"""

import ctypes

__version__ = "0.1.0"


def _keep_freed_heap() -> None:
    """Have glibc serve every block under 8 MiB from the heap and keep up
    to 64 MiB of it once freed, so a lockstep step's temporaries reuse
    pages instead of faulting fresh ones in; skipped where glibc is
    absent. It acts on this process only."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3     # glibc <malloc.h>
    mallopt(m_mmap_threshold, 8 << 20)
    mallopt(m_trim_threshold, 64 << 20)


_keep_freed_heap()
