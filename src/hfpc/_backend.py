"""Scan kernels as the search layer calls them.

Callers look the kernels up here at call time, so one module attribute
replaces a kernel everywhere (the benchmark's tracer does this).
"""

from __future__ import annotations

from ._scan_py import scan_quaternion, scan_two_generator

__all__ = ["BACKEND_NAME", "scan_quaternion", "scan_two_generator"]

BACKEND_NAME = "pure-python"
