"""Integer substrate selection.

gmpy2's mpz (GMP) keeps multi-million-digit multiplication and division
sub-quadratic, which matters for deep generation runs. Plain Python ints
are a drop-in fallback, just slower at extreme sizes: their long divisions
go through exactint.big_divmod, which is subquadratic, but their
multiplication is still Karatsuba.
"""

try:
    from gmpy2 import mpz as bigint

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    bigint = int
    HAVE_GMPY2 = False
