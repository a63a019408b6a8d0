"""A stand-in for gmpy2, so the library's gmpy2 branches run without GMP.

Only what the library uses: ``mpz``, an int subclass whose arithmetic
stays ``mpz`` as gmpy2's does, its ``digits(10)``, and gmpy2's repr.
Parsing and printing go through the built-in conversions with the
int/str digit limit lifted, as GMP has no such limit. Put this directory
first on ``sys.path`` of a fresh interpreter, before ``machin`` is
imported.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from intstr import unlimited_int_str  # noqa: E402


class mpz(int):
    __slots__ = ()

    def __new__(cls, value=0):
        if isinstance(value, str):
            with unlimited_int_str():
                value = int(value)
        return int.__new__(cls, value)

    def digits(self, base=10):
        if base != 10:
            raise NotImplementedError("the stand-in prints base 10 only")
        with unlimited_int_str():
            return int.__repr__(self)

    def __repr__(self):
        return f"mpz({self.digits()})"

    __str__ = digits


def _stays_mpz(name):
    method = getattr(int, name)

    def op(*args):
        result = method(*args)
        if type(result) is tuple:  # divmod
            return tuple(map(mpz, result))
        return mpz(result) if type(result) is int else result

    return op


for _name in ("add", "sub", "mul", "floordiv", "mod", "divmod", "pow", "lshift", "rshift",
              "and", "or", "xor"):
    setattr(mpz, f"__{_name}__", _stays_mpz(f"__{_name}__"))
    setattr(mpz, f"__r{_name}__", _stays_mpz(f"__r{_name}__"))
for _name in ("neg", "pos", "abs", "invert"):
    setattr(mpz, f"__{_name}__", _stays_mpz(f"__{_name}__"))
