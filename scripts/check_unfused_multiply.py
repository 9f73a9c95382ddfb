"""Fail unless numpy rounds each real product of a complex multiply.

On x86-64-v3 numpy fuses the real products of a complex multiply; at the
x86-64-v2 baseline, which ``NPY_DISABLE_CPU_FEATURES=X86_V3`` selects, it
rounds each one.  A step meant to run on the unfused path runs this first,
so that it fails where the flag did not take::

    NPY_DISABLE_CPU_FEATURES=X86_V3 python scripts/check_unfused_multiply.py
"""

import numpy as np

rng = np.random.default_rng(0)
a, b = (rng.standard_normal(100000) + 1j * rng.standard_normal(100000) for _ in "ab")
re = a.real * b.real - a.imag * b.imag
im = a.real * b.imag + a.imag * b.real
assert np.array_equal(a * b, re + 1j * im), "complex multiply still fused"
