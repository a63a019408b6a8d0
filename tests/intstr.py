"""Lift the int/str digit limit for test-side oracles only.

The suite runs under the interpreter's default limit (4300 digits), as
users do. An oracle that calls str() or int() on a big int, to check the
library's own codec against the built-in one, does so inside this block.
"""
import sys
from contextlib import contextmanager


@contextmanager
def unlimited_int_str():
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)
